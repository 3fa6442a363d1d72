type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

let float dp x = Float (dp, x)
let opt f = function Some x -> f x | None -> Null
let ints l = List (List.map (fun i -> Int i) l)
let strings l = List (List.map (fun s -> String s) l)

let escape buf s =
  let n = String.length s in
  let rec go i =
    if i < n then
      match s.[i] with
      | '"' -> Buffer.add_string buf "\\\""; go (i + 1)
      | '\\' -> Buffer.add_string buf "\\\\"; go (i + 1)
      | '\n' -> Buffer.add_string buf "\\n"; go (i + 1)
      | '\r' -> Buffer.add_string buf "\\r"; go (i + 1)
      | '\t' -> Buffer.add_string buf "\\t"; go (i + 1)
      | c when c < ' ' -> Printf.bprintf buf "\\u%04x" (Char.code c); go (i + 1)
      | c when c < '\x80' -> Buffer.add_char buf c; go (i + 1)
      | c ->
        let d = String.get_utf_8_uchar s i in
        if Uchar.utf_decode_is_valid d then begin
          let len = Uchar.utf_decode_length d in
          Buffer.add_string buf (String.sub s i len);
          go (i + len)
        end
        else begin
          Printf.bprintf buf "\\u%04x" (Char.code c);
          go (i + 1)
        end
  in
  Buffer.add_char buf '"';
  go 0;
  Buffer.add_char buf '"'

let is_scalar = function List _ | Obj _ -> false | _ -> true

(* Lists of scalars print on one line; objects and other lists print one
   item per line, indented two spaces past [ind]. *)
let rec print buf ind = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float (dp, x) ->
    if Float.is_finite x then Printf.bprintf buf "%.*f" dp x
    else Buffer.add_string buf "null"
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | Obj [] -> Buffer.add_string buf "{}"
  | List vs when List.for_all is_scalar vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ", ";
        print buf ind v)
      vs;
    Buffer.add_char buf ']'
  | List vs ->
    block buf ind '[' ']' (List.map (fun v () -> print buf (ind + 2) v) vs)
  | Obj kvs ->
    block buf ind '{' '}'
      (List.map
         (fun (k, v) () ->
           escape buf k;
           Buffer.add_string buf ": ";
           print buf (ind + 2) v)
         kvs)

and block buf ind op cl items =
  Buffer.add_char buf op;
  List.iteri
    (fun i item ->
      Buffer.add_string buf (if i > 0 then ",\n" else "\n");
      Buffer.add_string buf (String.make (ind + 2) ' ');
      item ())
    items;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make ind ' ');
  Buffer.add_char buf cl

let to_string v =
  let buf = Buffer.create 4096 in
  print buf 0 v;
  Buffer.contents buf

let started = Unix.gettimeofday ()

let document ~schema ~gates fields =
  let now = Unix.gettimeofday () in
  let failed = List.filter (fun (_, ok) -> not ok) gates in
  let fresh = List.filter (fun (k, _) -> not (List.mem_assoc k fields)) in
  Obj
    (fresh
       [
         ("schema", String schema);
         ("generated_unix_time", Float (0, now));
         ("wall_s", Float (6, now -. started));
       ]
    @ fields
    @ fresh
        [
          ("gates", Obj (List.map (fun (name, ok) -> (name, Bool ok)) gates));
          ("gates_failed", Int (List.length failed));
        ])

let tool = Filename.remove_extension (Filename.basename Sys.executable_name)

let write ~schema ~out ~gates fields =
  Out_channel.with_open_text out (fun oc ->
      output_string oc (to_string (document ~schema ~gates fields));
      output_char oc '\n');
  Printf.printf "  wrote %s\n%!" out;
  let failed = List.filter (fun (_, ok) -> not ok) gates in
  List.iter (fun (name, _) -> Printf.eprintf "%s: FAIL gate %s\n" tool name)
    failed;
  if failed <> [] then exit 1

let parse_flags ~usage specs =
  Arg.parse (Arg.align specs)
    (fun a -> raise (Arg.Bad ("unknown argument " ^ a)))
    usage
