type t =
  | Total
  | Keyed of { name : string; key : Msg.t -> string option }

let total = Total
let never = Keyed { name = "never"; key = (fun _ -> None) }
let keyed ?(name = "keyed") key = Keyed { name; key }

(* "k=<key>;<rest>" -> Some "<key>"; anything else is a commuting
   command. The key may not contain ';'. *)
let payload_class payload =
  if String.length payload >= 2 && String.sub payload 0 2 = "k=" then
    match String.index_opt payload ';' with
    | Some i when i > 2 -> Some (String.sub payload 2 (i - 2))
    | Some _ | None -> None
  else None

let payload_key =
  Keyed
    {
      name = "payload-key";
      key = (fun (m : Msg.t) -> payload_class m.payload);
    }

let name = function Total -> "total" | Keyed { name; _ } -> name

let class_of t m = match t with Total -> Some "" | Keyed { key; _ } -> key m

let conflicts t m1 m2 =
  (not (Msg.equal_id m1 m2))
  &&
  match (class_of t m1, class_of t m2) with
  | Some k1, Some k2 -> String.equal k1 k2
  | None, _ | _, None -> false
