(* Partial replication — the application the paper's introduction motivates.

   Four data centres each replicate one shard of an inventory (EU, US, ASIA,
   LATAM warehouses). A stock transfer touches exactly two shards; a local
   restock touches one. Using genuine atomic multicast (A1), each operation
   involves only the sites that hold the touched shards, yet every replica
   of a shard applies the same operations in the same order — so replicas
   never diverge, even for transfers racing in opposite directions.

   The same workload pushed through the non-genuine broadcast-based
   multicast shows the tradeoff from Sections 1 and 6: same ordering
   guarantees, but every site pays for every operation.

   Run with: dune exec examples/partial_replication.exe *)

open Des
open Net

let shard_names = [| "EU"; "US"; "ASIA"; "LATAM" |]

(* An operation, encoded in the message payload. *)
type op =
  | Restock of { shard : int; qty : int }
  | Transfer of { from_shard : int; to_shard : int; qty : int }

let encode = function
  | Restock { shard; qty } -> Fmt.str "restock:%d:%d" shard qty
  | Transfer { from_shard; to_shard; qty } ->
    Fmt.str "transfer:%d:%d:%d" from_shard to_shard qty

let decode s =
  match String.split_on_char ':' s with
  | [ "restock"; shard; qty ] ->
    Restock { shard = int_of_string shard; qty = int_of_string qty }
  | [ "transfer"; f; t; qty ] ->
    Transfer
      {
        from_shard = int_of_string f;
        to_shard = int_of_string t;
        qty = int_of_string qty;
      }
  | _ -> invalid_arg "decode"

let dest_of = function
  | Restock { shard; _ } -> [ shard ]
  | Transfer { from_shard; to_shard; _ } ->
    List.sort_uniq Int.compare [ from_shard; to_shard ]

(* Each replica applies delivered operations to its shard's stock level.
   Deterministic application + atomic multicast = replica consistency. *)
type replica = { shard : int; mutable stock : int; mutable log : string list }

let apply replica op =
  (match op with
  | Restock { shard; qty } when shard = replica.shard ->
    replica.stock <- replica.stock + qty
  | Transfer { from_shard; qty; _ } when from_shard = replica.shard ->
    replica.stock <- replica.stock - qty
  | Transfer { to_shard; qty; _ } when to_shard = replica.shard ->
    replica.stock <- replica.stock + qty
  | Restock _ | Transfer _ -> ());
  replica.log <- encode op :: replica.log

let run_with (type a) (module P : Amcast.Protocol.S with type t = a) name =
  let module Runner = Harness.Runner.Make (P) in
  let topology = Topology.symmetric ~groups:4 ~per_group:2 in
  let replicas =
    Array.init (Topology.n_processes topology) (fun pid ->
        { shard = Topology.group_of topology pid; stock = 1000; log = [] })
  in
  let deployment = Runner.deploy ~seed:7 topology in
  let ops =
    [
      (0, Restock { shard = 0; qty = 50 });
      (2, Transfer { from_shard = 1; to_shard = 0; qty = 30 });
      (4, Transfer { from_shard = 2; to_shard = 3; qty = 200 });
      (0, Transfer { from_shard = 0; to_shard = 1; qty = 10 });
      (6, Restock { shard = 3; qty = 80 });
      (2, Transfer { from_shard = 1; to_shard = 2; qty = 5 });
      (* Two transfers racing in opposite directions between the same
         shards: atomic multicast orders them identically at both. *)
      (0, Transfer { from_shard = 0; to_shard = 2; qty = 1 });
      (4, Transfer { from_shard = 2; to_shard = 0; qty = 2 });
    ]
  in
  List.iteri
    (fun i (origin, op) ->
      ignore
        (Runner.cast_at deployment
           ~at:(Sim_time.of_ms (1 + (5 * i)))
           ~origin ~dest:(dest_of op) ~payload:(encode op) ()))
    ops;
  let result = Runner.run_deployment deployment in
  (* Apply deliveries in each replica's order. *)
  List.iter
    (fun (d : Harness.Run_result.delivery_event) ->
      apply replicas.(d.pid) (decode d.msg.payload))
    result.deliveries;
  Fmt.pr "@.== %s ==@." name;
  Array.iteri
    (fun pid r ->
      Fmt.pr "  p%d (%s shard): stock=%d after %d ops@." pid
        shard_names.(r.shard) r.stock (List.length r.log))
    replicas;
  (* Replicas of the same shard must agree exactly. *)
  Array.iteri
    (fun pid r ->
      Array.iteri
        (fun pid' r' ->
          if pid < pid' && r.shard = r'.shard then begin
            assert (r.stock = r'.stock);
            assert (r.log = r'.log)
          end)
        replicas)
    replicas;
  Fmt.pr "  replicas of each shard: identical state and logs.@.";
  (match Harness.Checker.check_all result with
  | [] -> ()
  | v ->
    Fmt.pr "VIOLATIONS: %a@." Fmt.(list string) v;
    exit 1);
  Fmt.pr "  inter-site messages: %d (local: %d)@."
    result.Harness.Run_result.inter_group_msgs
    result.intra_group_msgs;
  result.inter_group_msgs

let () =
  Fmt.pr
    "Partial replication across 4 data centres, 8 operations touching 1-2 \
     shards each.@.";
  let genuine = run_with (module Amcast.A1) "A1 (genuine multicast)" in
  let broadcast =
    run_with (module Amcast.Via_broadcast) "broadcast-based multicast"
  in
  Fmt.pr
    "@.The genuine protocol used %d inter-site messages; routing everything \
     through atomic broadcast used %d — %.1fx more, because every site \
     participates in every operation (the tradeoff of Sections 1 and 6).@."
    genuine broadcast
    (float_of_int broadcast /. float_of_int (max 1 genuine))
