(* Keyed fixed-window rate limiting. PEERING limits each experiment to 144
   BGP updates per day per (prefix, PoP) pair (paper §4.7); the enforcement
   engine consults one of these, and state can be synchronized across vBGP
   instances for AS-wide limits by sharing the limiter. Keys are
   structured values compared structurally (the enforcer keys by
   experiment, prefix and PoP), so a check formats no string. *)

type window = { mutable start : float; mutable used : int }

type 'k t = {
  limit : int;
  period : float;  (** window length, seconds *)
  windows : ('k, window) Hashtbl.t;
}

let create ~limit ~period =
  if limit < 0 || period <= 0. then invalid_arg "Rate_limiter.create";
  { limit; period; windows = Hashtbl.create 64 }

let day = 86_400.

(* The platform's default announcement limiter: 144/day per key. *)
let peering_default () = create ~limit:144 ~period:day

let window t ~now key =
  match Hashtbl.find_opt t.windows key with
  | Some w ->
      if now -. w.start >= t.period then begin
        w.start <- now;
        w.used <- 0
      end;
      w
  | None ->
      let w = { start = now; used = 0 } in
      Hashtbl.replace t.windows key w;
      w

(* Try to consume one token for [key]; [false] means over budget. [limit]
   overrides the limiter default for this key (per-experiment budgets). *)
let allow ?limit t ~now key =
  let limit = match limit with Some l -> l | None -> t.limit in
  let w = window t ~now key in
  if w.used >= limit then false
  else begin
    w.used <- w.used + 1;
    true
  end

let remaining ?limit t ~now key =
  let limit = match limit with Some l -> l | None -> t.limit in
  let w = window t ~now key in
  max 0 (limit - w.used)

let used t ~now key = (window t ~now key).used

let reset t = Hashtbl.reset t.windows
