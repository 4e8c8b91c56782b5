(* A bounded in-memory event trace. PlanetFlow-style attribution (paper
   §3.1) requires that experiment activity be loggable; platform components
   record control- and data-plane events here, and tests assert on them. *)

type entry = { time : float; category : string; message : string }

type t = {
  mutable entries : entry list;  (** newest first *)
  mutable count : int;
  capacity : int;
  mutable enabled : bool;
  mutable dropped : int;  (** entries evicted at capacity, ever *)
}

let create ?(capacity = 10_000) () =
  { entries = []; count = 0; capacity; enabled = true; dropped = 0 }

let set_enabled t enabled = t.enabled <- enabled
let enabled t = t.enabled

let record t ~time ~category fmt =
  if not t.enabled then Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  else
    Format.kasprintf
      (fun message -> begin
        t.entries <- { time; category; message } :: t.entries;
        t.count <- t.count + 1;
        if t.count > t.capacity then begin
          (* Drop the oldest half; amortized O(1) per record. *)
          let keep = t.capacity / 2 in
          t.entries <- List.filteri (fun i _ -> i < keep) t.entries;
          t.dropped <- t.dropped + (t.count - keep);
          t.count <- keep
        end
      end)
    fmt

let dropped t = t.dropped

(* Entries oldest-first. *)
let entries t = List.rev t.entries

let find t ~category =
  List.rev
    (List.filter (fun e -> String.equal e.category category) t.entries)

let count t ~category =
  List.length (List.filter (fun e -> String.equal e.category category) t.entries)

let clear t =
  t.entries <- [];
  t.count <- 0

let pp_entry ppf e =
  Fmt.pf ppf "[%8.3f] %-12s %s" e.time e.category e.message

let dump ?(limit = max_int) t ppf =
  List.iteri
    (fun i e -> if i < limit then Fmt.pf ppf "%a@." pp_entry e)
    (entries t)
