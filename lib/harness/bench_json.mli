(** The report path every bench tool shares: flags, a JSON value type
    with its printer, and the envelope whose gates set the exit code.

    A tool parses its flags with {!parse_flags}, builds its payload as
    [(key, value)] fields and hands them to {!write} with one named
    boolean per pass/fail condition. {!write} adds the envelope, writes
    the file, names every failed gate on stderr and exits 1 if any
    failed, so CI checks the exit code instead of grepping the file. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float
      (** [Float (dp, x)] prints [x] with [dp] decimal places, as
          [Printf "%.*f"] does; a non-finite [x] prints [null]. *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val float : int -> float -> t
(** [float dp x] is [Float (dp, x)]. *)

val opt : ('a -> t) -> 'a option -> t
(** [None] is [Null]. *)

val ints : int list -> t
val strings : string list -> t

val to_string : t -> string
(** Two-space indented JSON with ["key": value] (one space after the
    colon). A list or object of scalars prints on one line, an empty one
    as [[]] or [{}]. Strings are escaped per RFC 8259: ["\""], ["\\"] and
    control characters get escapes, valid UTF-8 passes through, and a
    byte that is not part of valid UTF-8 prints as [\u00XX]. *)

val document :
  schema:string -> gates:(string * bool) list -> (string * t) list -> t
(** [document ~schema ~gates fields] is the envelope around [fields]:
    [schema], [generated_unix_time], [wall_s] (wall time since the
    process started), then [fields], then [gates] (name → passed) and
    [gates_failed] (how many are false). A key in [fields] that the
    envelope also writes is kept from [fields], and the envelope's own is
    left out. *)

val write :
  schema:string -> out:string -> gates:(string * bool) list ->
  (string * t) list -> unit
(** Writes {!document} to [out] and says so on stdout. If a gate failed,
    prints ["<tool>: FAIL gate <name>"] to stderr for each and exits 1. *)

val parse_flags : usage:string -> (Arg.key * Arg.spec * Arg.doc) list -> unit
(** [Arg.parse] over the aligned [specs]; a positional argument is an
    error. A bad argument prints the usage and exits 2. *)
