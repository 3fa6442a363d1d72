(* Write-ahead command log: the durability layer under a replica.

   One file per replica, a flat sequence of length-prefixed records
   (4-byte big-endian length + the encoded command). A replica appends
   the encoded command at delivery, before applying it; on restart,
   [replay] rebuilds the applied prefix. A torn tail (the process died
   mid-append) is detected by the length prefix running past EOF and
   dropped — the command was not acknowledged as applied, so dropping it
   is safe.

   Appends are flushed to the OS on every record: a replica that stops
   (or is killed) loses at most the record being written. Fsync-level
   durability against whole-machine power loss is out of scope — the
   failure model here is crash-stop of the process, matching the
   simulator's. *)

type t = { path : string; mutable chan : out_channel option }

let append_channel path =
  open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path

let create path = { path; chan = Some (append_channel path) }

let append t record =
  match t.chan with
  | None -> invalid_arg "Wal.append: closed"
  | Some oc ->
    let n = String.length record in
    let hdr = Bytes.create 4 in
    Bytes.set_int32_be hdr 0 (Int32.of_int n);
    output_bytes oc hdr;
    output_string oc record;
    flush oc

let close t =
  match t.chan with
  | None -> ()
  | Some oc ->
    t.chan <- None;
    close_out_noerr oc

let replay_file path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let records = ref [] in
    let pos = ref 0 in
    (try
       while !pos + 4 <= len do
         let hdr = really_input_string ic 4 in
         let n = Int32.to_int (String.get_int32_be hdr 0) in
         if n < 0 || !pos + 4 + n > len then raise Exit (* torn tail *)
         else begin
           records := really_input_string ic n :: !records;
           pos := !pos + 4 + n
         end
       done
     with Exit | End_of_file -> ());
    close_in_noerr ic;
    List.rev !records
  end

(* Reopen for appending after a replay — the restart path. A torn tail is
   dropped by rewriting the good records to a temporary file and renaming
   it into place (atomic on POSIX), so a crash during recovery never loses
   a durable record. *)
let recover path =
  let records = replay_file path in
  let tmp = path ^ ".tmp" in
  let t0 =
    {
      path = tmp;
      chan =
        Some
          (open_out_gen
             [ Open_wronly; Open_trunc; Open_creat; Open_binary ]
             0o644 tmp);
    }
  in
  List.iter (fun r -> append t0 r) records;
  close t0;
  Sys.rename tmp path;
  (records, { path; chan = Some (append_channel path) })
