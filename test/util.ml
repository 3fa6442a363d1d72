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

let degree_of result id =
  match Harness.Metrics.latency_degree result id with
  | Some d -> d
  | None -> Alcotest.failf "message %a was never delivered" Runtime.Msg_id.pp id

let qcheck_case ?(count = 100) ~name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)
