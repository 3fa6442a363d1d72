(* Shared helpers for the test suites. *)

let ms = Des.Sim_time.of_ms
let us = Des.Sim_time.of_us

let check_no_violations what violations =
  Alcotest.(check (list string)) what [] violations

(* Tiny substring search helper (stdlib has none). *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else begin
    let found = ref false in
    for i = 0 to nh - nn do
      if (not !found) && String.sub haystack i nn = needle then found := true
    done;
    !found
  end

(* Figure 1's latency model: keeps the intra/inter asymmetry but with zero
   jitter so expectations are exact. *)
let crisp_latency = Harness.Figure1.crisp

let wan = Net.Latency.wan_default

let entry name =
  match Amcast.Catalogue.find name with
  | Some e -> e
  | None -> Alcotest.failf "no catalogue entry %S" name

let degree_of result id =
  match Harness.Metrics.latency_degree result id with
  | Some d -> d
  | None -> Alcotest.failf "message %a was never delivered" Runtime.Msg_id.pp id

let qcheck_case ?(count = 100) ~name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* [run ~max_steps] under an event budget of five times [clean], the
   event count of its clean run, so a runaway (a protocol that
   re-proposes or re-delivers forever) fails as an assertion instead of
   growing until memory runs out. *)
let within_budget ~clean run =
  let max_steps = 5 * clean in
  match run ~max_steps with
  | r -> r
  | exception Failure msg ->
    Alcotest.failf "%s: budget %d events, a clean run takes %d" msg max_steps
      clean

(* A copy of [r] with one process's delivery sequence shuffled in place,
   from [seed]: the other slots of the global interleaving keep their
   owners and every slot keeps its instant, so only that process's
   message order changed. Turns a correct run into one with seeded order
   violations, on which the fast checks and their oracles must agree
   too. The trace is shared, so trace readers see the original run. *)
let mutate_run seed (r : Harness.Run_result.t) =
  let rng = Des.Rng.create seed in
  let pid = Des.Rng.int rng (Net.Topology.n_processes r.topology) in
  let dels = Array.of_list r.deliveries in
  let slots = ref [] in
  Array.iteri
    (fun i (d : Harness.Run_result.delivery_event) ->
      if d.pid = pid then slots := i :: !slots)
    dels;
  let slots = Array.of_list (List.rev !slots) in
  for i = Array.length slots - 1 downto 1 do
    let j = Des.Rng.int rng (i + 1) in
    let a = slots.(i) and b = slots.(j) in
    let tmp = dels.(a) in
    dels.(a) <- dels.(b);
    dels.(b) <- tmp
  done;
  let deliveries =
    List.mapi
      (fun i (orig : Harness.Run_result.delivery_event) ->
        { orig with msg = dels.(i).msg })
      r.deliveries
  in
  Harness.Run_result.make ~topology:r.topology ~casts:r.casts ~deliveries
    ~crashed:r.crashed ~trace:r.trace ~inter_group_msgs:r.inter_group_msgs
    ~intra_group_msgs:r.intra_group_msgs ~end_time:r.end_time
    ~drained:r.drained ~events_executed:r.events_executed ()
