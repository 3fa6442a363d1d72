open Des

let test_time_arith () =
  Alcotest.(check int) "of_ms" 5_000 (Sim_time.to_us (Sim_time.of_ms 5));
  Alcotest.(check int) "add" 7_000
    (Sim_time.to_us (Sim_time.add (Sim_time.of_ms 3) (Sim_time.of_ms 4)));
  Alcotest.(check int) "diff" (-1_000)
    (Sim_time.diff (Sim_time.of_ms 3) (Sim_time.of_ms 4));
  Alcotest.(check int) "add_us clamps" 0
    (Sim_time.to_us (Sim_time.add_us Sim_time.zero (-5)));
  Alcotest.(check bool) "compare" true
    Sim_time.(of_ms 1 < of_ms 2)

let test_time_invalid () =
  Alcotest.check_raises "negative us" (Invalid_argument "Sim_time.of_us: negative")
    (fun () -> ignore (Sim_time.of_us (-1)))

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 100 (fun _ -> Rng.int a 1000) in
  let ys = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_split_independent () =
  let root1 = Rng.create 7 in
  let child1 = Rng.split root1 in
  let root2 = Rng.create 7 in
  let child2 = Rng.split root2 in
  (* Splitting is deterministic... *)
  Alcotest.(check int) "split deterministic" (Rng.int child1 1_000_000)
    (Rng.int child2 1_000_000);
  (* ...and drawing from the child does not perturb the parent. *)
  let root3 = Rng.create 7 in
  let _child3 = Rng.split root3 in
  Alcotest.(check int) "parent independent of child draws"
    (Rng.int root1 1_000_000) (Rng.int root3 1_000_000)

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done;
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.failf "float out of bounds: %f" v
  done

let test_rng_exponential_positive () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.exponential rng ~mean:10. in
    if v < 0. then Alcotest.failf "negative exponential draw: %f" v
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create 5 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_rng_sample () =
  let rng = Rng.create 6 in
  let xs = List.init 10 Fun.id in
  let s = Rng.sample_without_replacement rng 4 xs in
  Alcotest.(check int) "size" 4 (List.length s);
  Alcotest.(check int) "distinct" 4
    (List.length (List.sort_uniq Int.compare s));
  let s2 = Rng.sample_without_replacement rng 99 xs in
  Alcotest.(check int) "clamped to population" 10 (List.length s2)

let test_queue_orders_by_time () =
  let q = Event_queue.create ~dummy:"" in
  ignore (Event_queue.add q ~time:(Sim_time.of_ms 3) "c");
  ignore (Event_queue.add q ~time:(Sim_time.of_ms 1) "a");
  ignore (Event_queue.add q ~time:(Sim_time.of_ms 2) "b");
  let pop () = Option.map snd (Event_queue.pop q) in
  Alcotest.(check (option string)) "first" (Some "a") (pop ());
  Alcotest.(check (option string)) "second" (Some "b") (pop ());
  Alcotest.(check (option string)) "third" (Some "c") (pop ());
  Alcotest.(check (option string)) "empty" None (pop ())

let test_queue_fifo_on_ties () =
  let q = Event_queue.create ~dummy:"" in
  let t = Sim_time.of_ms 1 in
  for i = 0 to 9 do
    ignore (Event_queue.add q ~time:t (string_of_int i))
  done;
  let order = List.init 10 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list string))
    "insertion order on equal timestamps"
    (List.init 10 string_of_int)
    order

let test_queue_cancel () =
  let q = Event_queue.create ~dummy:"" in
  let h1 = ignore (Event_queue.add q ~time:(Sim_time.of_ms 1) "a");
           Event_queue.add q ~time:(Sim_time.of_ms 2) "b" in
  Event_queue.cancel q h1;
  Alcotest.(check int) "size after cancel" 1 (Event_queue.size q);
  Alcotest.(check (option string)) "skips cancelled" (Some "a")
    (Option.map snd (Event_queue.pop q));
  Alcotest.(check (option string)) "then empty" None
    (Option.map snd (Event_queue.pop q));
  (* Cancelling a popped handle must not corrupt live accounting. *)
  Event_queue.cancel q h1;
  Alcotest.(check int) "still empty" 0 (Event_queue.size q)

let test_queue_many () =
  let q = Event_queue.create ~dummy:0 in
  let rng = Rng.create 11 in
  let times = List.init 2_000 (fun _ -> Rng.int rng 1_000_000) in
  List.iter (fun t -> ignore (Event_queue.add q ~time:(Sim_time.of_us t) t)) times;
  let rec drain acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  let out = drain [] in
  Alcotest.(check (list int)) "drains sorted (stable)"
    (List.stable_sort Int.compare times)
    out

let test_queue_heavy_cancellation () =
  (* Cancel 90% of a large queue, then drain: the survivors must come out
     in (time, insertion) order and the live count must track exactly. *)
  let q = Event_queue.create ~dummy:0 in
  let n = 1_000 in
  let handles =
    Array.init n (fun i -> Event_queue.add q ~time:(Sim_time.of_us (i * 7 mod 400)) i)
  in
  let kept = ref [] in
  Array.iteri
    (fun i h ->
      if i mod 10 <> 0 then Event_queue.cancel q h
      else kept := (i * 7 mod 400, i) :: !kept)
    handles;
  Alcotest.(check int) "live count after mass cancel" (List.length !kept)
    (Event_queue.size q);
  let rec drain acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (t, v) -> drain ((Sim_time.to_us t, v) :: acc)
  in
  let expected =
    List.stable_sort
      (fun (ta, ia) (tb, ib) ->
        if ta <> tb then Int.compare ta tb else Int.compare ia ib)
      (List.rev !kept)
  in
  Alcotest.(check (list (pair int int))) "survivors in order" expected
    (drain []);
  Alcotest.(check int) "empty" 0 (Event_queue.size q);
  (* Cancelling after the drain must not resurrect anything. *)
  Array.iter (fun h -> Event_queue.cancel q h) handles;
  Alcotest.(check int) "still empty" 0 (Event_queue.size q);
  Alcotest.(check bool) "pop on empty" true (Event_queue.pop q = None)

(* Untagged scheduling, as infrastructure hooks do. *)
let at s time f = Scheduler.at_tagged s Scheduler.Tag.generic time f
let after s d f = Scheduler.after_tagged s Scheduler.Tag.generic d f

let test_scheduler_executed_counter () =
  let s = Scheduler.create () in
  for i = 1 to 5 do
    ignore (at s (Sim_time.of_ms i) (fun () -> ()))
  done;
  let h = at s (Sim_time.of_ms 6) (fun () -> ()) in
  Scheduler.cancel s h;
  Scheduler.run s;
  Alcotest.(check int) "cancelled actions are not counted" 5
    (Scheduler.executed s)

let test_scheduler_runs_in_order () =
  let s = Scheduler.create () in
  let log = ref [] in
  ignore (at s (Sim_time.of_ms 2) (fun () -> log := 2 :: !log));
  ignore (at s (Sim_time.of_ms 1) (fun () -> log := 1 :: !log));
  ignore
    (at s (Sim_time.of_ms 1) (fun () ->
         (* actions can schedule more actions *)
         ignore (after s (Sim_time.of_ms 5) (fun () -> log := 6 :: !log))));
  Scheduler.run s;
  Alcotest.(check (list int)) "order" [ 1; 2; 6 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 6_000
    (Sim_time.to_us (Scheduler.now s))

let test_scheduler_until () =
  let s = Scheduler.create () in
  let log = ref [] in
  ignore (at s (Sim_time.of_ms 1) (fun () -> log := 1 :: !log));
  ignore (at s (Sim_time.of_ms 10) (fun () -> log := 10 :: !log));
  Scheduler.run ~until:(Sim_time.of_ms 5) s;
  Alcotest.(check (list int)) "only events before horizon" [ 1 ] (List.rev !log);
  Alcotest.(check int) "pending remains" 1 (Scheduler.pending s);
  Scheduler.run s;
  Alcotest.(check (list int)) "rest runs later" [ 1; 10 ] (List.rev !log)

let test_scheduler_cancel () =
  let s = Scheduler.create () in
  let fired = ref false in
  let h = at s (Sim_time.of_ms 1) (fun () -> fired := true) in
  Scheduler.cancel s h;
  Scheduler.run s;
  Alcotest.(check bool) "cancelled action does not fire" false !fired

let test_scheduler_max_steps () =
  let s = Scheduler.create () in
  let rec loop () = ignore (after s (Sim_time.of_ms 1) loop) in
  loop ();
  Alcotest.check_raises "runaway loop detected"
    (Failure "Scheduler.run: max_steps exhausted (runaway event loop?)")
    (fun () -> Scheduler.run ~max_steps:100 s)

let test_scheduler_past_clamped () =
  let s = Scheduler.create () in
  let log = ref [] in
  ignore
    (at s (Sim_time.of_ms 5) (fun () ->
         ignore (at s (Sim_time.of_ms 1) (fun () -> log := `Late :: !log))));
  Scheduler.run s;
  Alcotest.(check int) "past-scheduled action still runs" 1 (List.length !log);
  Alcotest.(check int) "clock does not go backwards" 5_000
    (Sim_time.to_us (Scheduler.now s))

(* Golden pin of the SplitMix64 streams: the first outputs of [create],
   [split], [substream] and a mid-stream [copy], plus derived [int] and
   [float] draws. Every seeded run in the repository is a function of
   these streams, so a change to the generator's state layout must leave
   them bit-identical. *)
let test_rng_golden () =
  let take8 r = List.init 8 (fun _ -> Rng.int64 r) in
  let check name expected r =
    Alcotest.(check (list int64)) name expected (take8 r)
  in
  check "create 0"
    [ (-2152535657050944081L); 7960286522194355700L; 487617019471545679L;
      (-537132696929009172L); 1961750202426094747L; 6038094601263162090L;
      3207296026000306913L; (-4214222208109204676L) ]
    (Rng.create 0);
  check "create 42"
    [ (-7450291807549245335L); 2958219263312191191L; 3069497704473277141L;
      885919558081284366L; (-353919125003956057L); 4337243929683858115L;
      5152897204343404489L; 2820384354626331986L ]
    (Rng.create 42);
  let parent = Rng.create 7 in
  check "split (create 7)"
    [ (-4873906296908388014L); (-1315055668846156530L);
      (-8333724299056181765L); (-8447417609225075232L); 3055149783187969764L;
      4797013056859520325L; 7514238247719280357L; (-7412118897697356346L) ]
    (Rng.split parent);
  Alcotest.(check (list int64)) "create 7 after split"
    [ 5573481420429128725L; (-1088427420777695408L) ]
    (List.init 2 (fun _ -> Rng.int64 parent));
  check "substream 3 5"
    [ (-3346543296005785204L); (-9212663640750054680L);
      (-2117438395167011980L); 3708609415625654522L; (-680151413751466951L);
      8598585424917193312L; (-1253389573732221753L); (-6724235456664222056L) ]
    (Rng.substream 3 5);
  let r = Rng.create 9 in
  for _ = 1 to 3 do
    ignore (Rng.int64 r)
  done;
  let c = Rng.copy r in
  let expected_copy =
    [ (-7911901224880060863L); (-6611298779027567543L);
      (-6354532496418769550L); 1855115956613024549L; 7065336345223341543L;
      1655719242250435742L; 8197214437883545955L; 6126479431360377512L ]
  in
  check "copy mid-stream" expected_copy c;
  check "original after copy" expected_copy r;
  let r = Rng.create 1 in
  Alcotest.(check (list int)) "int draws"
    [ 492; 673; 881; 251; 878; 897; 286; 323 ]
    (List.init 8 (fun _ -> Rng.int r 1000));
  Alcotest.(check (list (float 0.))) "float draws"
    [ 0.7871443110451439; 2.20557485900089; 1.2876514869857791;
      1.3340360200853185 ]
    (List.init 4 (fun _ -> Rng.float r 2.5))

let suites =
  [
    ( "des",
      [
        Alcotest.test_case "time arithmetic" `Quick test_time_arith;
        Alcotest.test_case "time invalid input" `Quick test_time_invalid;
        Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
        Alcotest.test_case "rng split independence" `Quick
          test_rng_split_independent;
        Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
        Alcotest.test_case "rng exponential" `Quick
          test_rng_exponential_positive;
        Alcotest.test_case "rng shuffle permutes" `Quick
          test_rng_shuffle_permutes;
        Alcotest.test_case "rng sampling" `Quick test_rng_sample;
        Alcotest.test_case "queue time order" `Quick test_queue_orders_by_time;
        Alcotest.test_case "queue FIFO ties" `Quick test_queue_fifo_on_ties;
        Alcotest.test_case "queue cancel" `Quick test_queue_cancel;
        Alcotest.test_case "queue stress" `Quick test_queue_many;
        Alcotest.test_case "queue heavy cancellation" `Quick
          test_queue_heavy_cancellation;
        Alcotest.test_case "scheduler executed counter" `Quick
          test_scheduler_executed_counter;
        Alcotest.test_case "scheduler order" `Quick
          test_scheduler_runs_in_order;
        Alcotest.test_case "scheduler horizon" `Quick test_scheduler_until;
        Alcotest.test_case "scheduler cancel" `Quick test_scheduler_cancel;
        Alcotest.test_case "scheduler runaway guard" `Quick
          test_scheduler_max_steps;
        Alcotest.test_case "scheduler past clamp" `Quick
          test_scheduler_past_clamped;
        Alcotest.test_case "rng golden pin" `Quick test_rng_golden;
      ] );
  ]
