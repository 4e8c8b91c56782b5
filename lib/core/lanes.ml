(* Worker lanes: the parked-domain protocol behind the export lane. See lanes.mli for the contract; the comments here
   cover the mechanics. *)

type ('s, 'i) lane = {
  st : 's;
  mutable q : 'i array;
  mutable len : int;
  mutable hw : int;  (** lifetime high-water mark of [len] *)
}

(* A worker's slot. [W_work] is posted by the coordinator, [W_done] or
   [W_failed] by the worker, [W_quit] by [shutdown]; every transition
   happens under [lock]. *)
type wstate =
  | W_idle
  | W_work
  | W_done
  | W_failed of exn * Printexc.raw_backtrace
  | W_quit

type ('s, 'i) t = {
  lanes : ('s, 'i) lane array;
  dummy : 'i;
  work : 's -> 'i -> unit;
  lock : Mutex.t;
  cond : Condition.t;
  w_state : wstate array;  (** one slot per worker, [count - 1] long *)
  mutable handles : unit Domain.t array;  (** [ [||] ] = not spawned *)
}

let create ~lanes ~dummy ~init ~work =
  if lanes < 1 then invalid_arg "Lanes.create: lanes must be >= 1";
  {
    lanes =
      Array.init lanes (fun i ->
          { st = init i; q = Array.make 64 dummy; len = 0; hw = 0 });
    dummy;
    work;
    lock = Mutex.create ();
    cond = Condition.create ();
    w_state = Array.make (lanes - 1) W_idle;
    handles = [||];
  }

let count t = Array.length t.lanes
let state t i = t.lanes.(i).st
let iter f t = Array.iter (fun l -> f l.st) t.lanes

(* Determinism is load-bearing: it keeps per-neighbor state single-writer
   and differential runs reproducible. Quality only needs to spread
   dense small ids. *)
let of_neighbor ~lanes nid =
  if lanes <= 1 then 0
  else begin
    let h = (nid + 0x61c88647) * 0x9e3779b1 in
    (h lxor (h lsr 16)) land max_int mod lanes
  end

let push t i item =
  let l = t.lanes.(i) in
  if l.len = Array.length l.q then begin
    let bigger = Array.make (2 * l.len) t.dummy in
    Array.blit l.q 0 bigger 0 l.len;
    l.q <- bigger
  end;
  l.q.(l.len) <- item;
  l.len <- l.len + 1;
  if l.len > l.hw then l.hw <- l.len

let depth_max t = Array.map (fun l -> l.hw) t.lanes
let spawned t = Array.length t.handles

(* Run one lane's queue and report how it went, as a slot state: one
   lane's exception never stops the others. The queue is empty
   afterwards even when [work] raised: the rest of it is dropped, so a
   later run sees only its own items. [W_done] is a constant, so a run
   that raises nothing allocates nothing here. *)
let drain_lane t l =
  let outcome =
    match
      for i = 0 to l.len - 1 do
        t.work l.st l.q.(i)
      done
    with
    | () -> W_done
    | exception e -> W_failed (e, Printexc.get_raw_backtrace ())
  in
  Array.fill l.q 0 l.len t.dummy;
  l.len <- 0;
  outcome

let reraise = function
  | W_failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | W_idle | W_work | W_done | W_quit -> ()

(* The persistent worker body: park until the coordinator posts
   [W_work], drain the lane outside the lock (workers run genuinely in
   parallel), post its outcome, park again. *)
let worker_loop t i =
  let l = t.lanes.(i + 1) in
  Mutex.lock t.lock;
  let rec loop () =
    match t.w_state.(i) with
    | W_quit -> Mutex.unlock t.lock
    | W_work ->
        Mutex.unlock t.lock;
        let outcome = drain_lane t l in
        Mutex.lock t.lock;
        t.w_state.(i) <- outcome;
        Condition.broadcast t.cond;
        loop ()
    | W_idle | W_done | W_failed _ ->
        Condition.wait t.cond t.lock;
        loop ()
  in
  loop ()

let run t =
  let workers = Array.length t.w_state in
  if workers = 0 then reraise (drain_lane t t.lanes.(0))
  else begin
    if Array.length t.handles = 0 then
      t.handles <-
        Array.init workers (fun i -> Domain.spawn (fun () -> worker_loop t i));
    Mutex.lock t.lock;
    Array.fill t.w_state 0 workers W_work;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    let lane0 = drain_lane t t.lanes.(0) in
    Mutex.lock t.lock;
    (* Wait for every worker, keeping the lowest lane's failure. *)
    let rec wait i outcome =
      if i = workers then outcome
      else
        match (t.w_state.(i), outcome) with
        | (W_idle | W_work | W_quit), _ ->
            Condition.wait t.cond t.lock;
            wait i outcome
        | (W_failed _ as failed), W_done -> wait (i + 1) failed
        | (W_done | W_failed _), _ -> wait (i + 1) outcome
    in
    let outcome = wait 0 lane0 in
    Array.fill t.w_state 0 workers W_idle;
    Mutex.unlock t.lock;
    (* Every lane has finished and every queue is empty: only now hand
       the exception to the caller. *)
    reraise outcome
  end

let shutdown t =
  if Array.length t.handles > 0 then begin
    let workers = Array.length t.w_state in
    Mutex.lock t.lock;
    Array.fill t.w_state 0 workers W_quit;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.handles;
    t.handles <- [||];
    Array.fill t.w_state 0 workers W_idle
  end
