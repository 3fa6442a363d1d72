open Des

type t = {
  protocol : string;
  sizes : int list;
  seed : int;
  intra_us : int;
  inter_us : int;
  config : string;
  overlay : Net.Overlay.kind option;
  spurious_timers : int;
  reorder_bound : int;
  casts : (int * int * int list * string) list;
  faults : (int * int) list;
  mutation : Mutant.spec option;
  choices : int list;
  note : string;
}

let make ?(seed = 0) ?(intra_us = 1_000) ?(inter_us = 50_000)
    ?(config = "default") ?overlay ?(spurious_timers = 0)
    ?(reorder_bound = max_int) ?(casts = []) ?(faults = []) ?mutation
    ?(choices = []) ?(note = "") ~protocol ~sizes () =
  {
    protocol;
    sizes;
    seed;
    intra_us;
    inter_us;
    config;
    overlay;
    spurious_timers;
    reorder_bound;
    casts;
    faults;
    mutation;
    choices;
    note;
  }

let magic = "amcast-mc-trace/v1"
let csv l = String.concat "," (List.map string_of_int l)

let to_string t =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" magic;
  line "protocol %s" t.protocol;
  line "sizes %s" (csv t.sizes);
  line "seed %d" t.seed;
  line "latency %d %d" t.intra_us t.inter_us;
  line "config %s" t.config;
  (match t.overlay with
  | Some k -> line "overlay %s" (Net.Overlay.kind_name k)
  | None -> ());
  line "spurious %d" t.spurious_timers;
  if t.reorder_bound <> max_int then line "reorder %d" t.reorder_bound;
  List.iter
    (fun (at, origin, dest, payload) ->
      line "cast %d %d %s %s" at origin (csv dest) payload)
    t.casts;
  List.iter (fun (at, pid) -> line "fault %d %d" at pid) t.faults;
  (match t.mutation with
  | Some spec -> line "mutation %s" (Mutant.spec_to_string spec)
  | None -> ());
  line "choices %s" (csv t.choices);
  if t.note <> "" then line "note %s" t.note;
  Buffer.contents b

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let int_field name v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> fail "bad %s %S" name v

let ints_field name v =
  if String.trim v = "" then []
  else
    List.map (int_field name) (String.split_on_char ',' (String.trim v))

(* First word and the rest of the line (or ""). *)
let cut line =
  match String.index_opt line ' ' with
  | Some i ->
    ( String.sub line 0 i,
      String.sub line (i + 1) (String.length line - i - 1) )
  | None -> (line, "")

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | m :: rest when m = magic -> (
    let protocol = ref "" in
    let sizes = ref [] in
    let seed = ref 0 in
    let intra_us = ref 1_000 in
    let inter_us = ref 50_000 in
    let config = ref "default" in
    let overlay = ref None in
    let spurious = ref 0 in
    let reorder = ref max_int in
    let casts = ref [] in
    let faults = ref [] in
    let mutation = ref None in
    let choices = ref [] in
    let note = ref "" in
    try
      List.iter
        (fun line ->
          let key, rest = cut line in
          match key with
          | "protocol" -> protocol := String.trim rest
          | "sizes" -> sizes := ints_field "sizes" rest
          | "seed" -> seed := int_field "seed" rest
          | "latency" -> (
            match String.split_on_char ' ' (String.trim rest) with
            | [ a; b ] ->
              intra_us := int_field "latency" a;
              inter_us := int_field "latency" b
            | _ -> fail "bad latency line %S" line)
          | "config" -> config := String.trim rest
          | "overlay" -> (
            match Net.Overlay.kind_of_name (String.trim rest) with
            | Some k -> overlay := Some k
            | None -> fail "unknown overlay kind %S" (String.trim rest))
          | "spurious" -> spurious := int_field "spurious" rest
          | "reorder" -> reorder := int_field "reorder" rest
          | "cast" -> (
            let at, rest = cut rest in
            let origin, rest = cut rest in
            let dest, payload = cut rest in
            match payload with
            | "" -> fail "bad cast line %S" line
            | _ ->
              casts :=
                ( int_field "cast at" at,
                  int_field "cast origin" origin,
                  ints_field "cast dest" dest,
                  payload )
                :: !casts)
          | "fault" -> (
            match String.split_on_char ' ' (String.trim rest) with
            | [ a; p ] ->
              faults := (int_field "fault at" a, int_field "fault pid" p) :: !faults
            | _ -> fail "bad fault line %S" line)
          | "mutation" -> (
            match Mutant.spec_of_string rest with
            | Ok spec -> mutation := Some spec
            | Error e -> fail "%s" e)
          | "choices" -> choices := ints_field "choices" rest
          | "note" -> note := rest
          | _ -> fail "unknown line %S" line)
        rest;
      if !protocol = "" then fail "missing protocol line";
      if !sizes = [] then fail "missing sizes line";
      Ok
        {
          protocol = !protocol;
          sizes = !sizes;
          seed = !seed;
          intra_us = !intra_us;
          inter_us = !inter_us;
          config = !config;
          overlay = !overlay;
          spurious_timers = !spurious;
          reorder_bound = !reorder;
          casts = List.rev !casts;
          faults = List.rev !faults;
          mutation = !mutation;
          choices = !choices;
          note = !note;
        }
    with Bad m -> Error m)
  | _ -> Error (Printf.sprintf "not an %s file" magic)

let save path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let load path =
  match
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | s -> of_string s
  | exception Sys_error e -> Error e

let config_of_name = function
  | "default" -> Some Amcast.Protocol.Config.default
  | "fritzke" -> Some Amcast.Protocol.Config.fritzke
  | "generic-key" ->
    (* The generic protocol under per-key payload conflicts — traces cast
       "k=<key>;..." payloads to make messages conflict. *)
    Some
      {
        Amcast.Protocol.Config.default with
        conflict = Amcast.Conflict.payload_key;
      }
  | _ -> None

type cell = {
  name : string;
  explore : Explorer.opts -> Explorer.outcome;
  minimize : int list -> int list * string list;
  replay : ?max_steps:int -> int list -> Harness.Run_result.t * string list;
}

let cell t =
  match (Amcast.Catalogue.find t.protocol, config_of_name t.config) with
  | None, _ ->
    Error
      (Printf.sprintf "unknown protocol %S (one of: %s)" t.protocol
         (String.concat ", "
            (List.map (fun (e : Amcast.Catalogue.entry) -> e.name)
               Amcast.Catalogue.all)))
  | _, None -> Error (Printf.sprintf "unknown config preset %S" t.config)
  | Some entry, Some config ->
    let (module Base : Amcast.Protocol.S) = entry.proto in
    let (module P : Amcast.Protocol.S) =
      match t.mutation with
      | None -> (module Base)
      | Some spec ->
        (module Mutant.Make
                  (Base)
                  (struct
                    let spec = spec
                  end))
    in
    let module E = Explorer.Make (P) in
    (* An overlay line replaces the uniform latency pair with the
       geometry's routed-path delays and hands the overlay to the
       protocol config (FlexCast routes along it); without one the
       classic clique replay is byte-identical to older traces. *)
    let intra = Sim_time.of_us t.intra_us in
    let latency, config =
      match t.overlay with
      | None ->
        ( Net.Latency.uniform ~intra ~inter:(Sim_time.of_us t.inter_us) (),
          config )
      | Some k ->
        let ov = Net.Overlay.of_kind k ~groups:(List.length t.sizes) in
        ( Net.Overlay.to_latency ~intra ov,
          { config with Amcast.Protocol.Config.overlay = Some ov } )
    in
    let setup =
      {
        E.topology = Net.Topology.make ~sizes:t.sizes;
        workload =
          List.map
            (fun (at, origin, dest, payload) ->
              { Harness.Workload.at = Sim_time.of_us at; origin; dest; payload })
            t.casts;
        seed = t.seed;
        latency;
        config;
        faults =
          List.map
            (fun (at, pid) -> Harness.Runner.crash ~at:(Sim_time.of_us at) pid)
            t.faults;
        spurious_timers = t.spurious_timers;
        reorder_bound = t.reorder_bound;
      }
    in
    (* What the base entry owes: a mutant's name is not in the catalogue,
       so explore, minimize and replay must all be told. *)
    let owed = Harness.Checker.owed entry config in
    Ok
      {
        name = P.name;
        explore =
          (fun opts ->
            let check = Some (Option.value opts.check ~default:owed) in
            E.explore ~opts:{ opts with check } setup);
        minimize = E.minimize ~check:owed setup;
        replay =
          (fun ?max_steps choices ->
            let r = E.replay ?max_steps setup choices in
            (r, owed r));
      }

let replay ?max_steps t =
  Result.map (fun c -> c.replay ?max_steps t.choices) (cell t)
