let recommended_domains () = Domain.recommended_domain_count ()

(* Chunked self-scheduling: workers repeatedly claim [chunk] consecutive
   indices with one fetch-and-add, so contention on the shared counter is
   O(items / chunk) rather than O(items), while chunks stay small enough
   that an unlucky worker cannot end up holding a long tail. Results land
   at their input index, so the output order is the input order no matter
   how the chunks interleave — determinism costs nothing here. *)
let tabulate ?domains n f =
  let domains =
    match domains with
    | Some d ->
      if d < 1 then invalid_arg "Pool.tabulate: domains must be >= 1";
      d
    | None -> recommended_domains ()
  in
  let domains = min domains (max 1 n) in
  if n = 0 then [||]
  else if domains = 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let first_exn = Atomic.make None in
    let chunk = max 1 (n / (domains * 4)) in
    let worker () =
      try
        let continue = ref true in
        while !continue do
          let start = Atomic.fetch_and_add next chunk in
          if start >= n then continue := false
          else
            for i = start to min n (start + chunk) - 1 do
              results.(i) <- Some (f i)
            done
        done
      with e ->
        (* Keep the first failure; let every worker drain so joins return. *)
        ignore (Atomic.compare_and_set first_exn None (Some e));
        Atomic.set next n
    in
    let spawned = Array.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    match Atomic.get first_exn with
    | Some e -> raise e
    | None ->
      Array.map
        (function
          | Some v -> v
          | None -> assert false (* every index was claimed exactly once *))
        results
  end
