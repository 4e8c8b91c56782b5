(* A path-compressed (Patricia/radix) trie keyed by bit-prefixes, used for
   every routing and forwarding table in the repository (longest-prefix
   match is the data plane's core operation, and per-neighbor FIBs are what
   Figure 6a sizes).

   Each node records the bit-index [len] at which its subtree's keys stop
   agreeing, so a lookup touches O(distinct branch points) heap nodes
   instead of one node per prefix bit: a full-table IPv4 walk visits a
   handful of nodes rather than 32, and the chains of empty interior nodes
   that a one-node-per-bit trie allocates (and that Figure 6a's
   memory_bytes pays for) do not exist at all. The skipped span of each
   node is verified with one word-level [diverge] comparison instead of a
   per-bit loop.

   The structure is functorized over the key so the same code backs IPv4
   and IPv6 tables. *)

module type KEY = sig
  type t

  val length : t -> int
  (** Number of significant bits. *)

  val bit : t -> int -> bool
  (** [bit k i] is bit [i] (0 = most significant); [i < length k]. *)

  val equal : t -> t -> bool

  val diverge : t -> t -> int -> int -> int
  (** [diverge a b lo hi] is the smallest [i] in [lo, hi) where bit [i] of
      [a] and [b] differ, or [hi] when they agree on the whole range.
      Requires [hi <= min (length a) (length b)]; word-level, not
      per-bit. *)
end

(* Index of the most significant set bit of a 32-bit value, counted from
   the top: 0 names bit 31. Shared by both key instantiations. *)
let msb32 v =
  let v = ref v and r = ref 0 in
  if !v land 0xffff0000 <> 0 then begin
    r := !r + 16;
    v := !v lsr 16
  end;
  if !v land 0xff00 <> 0 then begin
    r := !r + 8;
    v := !v lsr 8
  end;
  if !v land 0xf0 <> 0 then begin
    r := !r + 4;
    v := !v lsr 4
  end;
  if !v land 0xc <> 0 then begin
    r := !r + 2;
    v := !v lsr 2
  end;
  if !v land 0x2 <> 0 then incr r;
  31 - !r

module Make (K : KEY) = struct
  (* A node sits at the bit-index where its subtree's keys stop agreeing.
     For [Leaf]/[Bind] that index is the bound key's own length (the key
     and its length double as the representative and span end); [Branch]
     carries them explicitly, with [rep] a shared pointer to any key
     stored below (never a fresh allocation). Invariants: a [Branch] has
     two non-empty children (it is a genuine branch point), a [Bind] at
     least one; all keys under a node agree with its representative on
     bits [0, len). The three layouts keep binding nodes free of option
     and tuple boxes — what Figure 6a's memory_bytes pays for. *)
  type 'a t =
    | Empty
    | Leaf of { key : K.t; value : 'a }
    | Bind of { key : K.t; value : 'a; zero : 'a t; one : 'a t }
    | Branch of { rep : K.t; len : int; zero : 'a t; one : 'a t }

  let empty = Empty
  let is_empty = function Empty -> true | Leaf _ | Bind _ | Branch _ -> false

  (* Smart constructor: picks the smallest layout and collapses
     binding-less nodes with fewer than two children, so removal and
     filtering restore full path compression. When [binding] is present,
     [len] is the bound key's length. *)
  let node rep len binding zero one =
    match (binding, zero, one) with
    | None, Empty, Empty -> Empty
    | None, c, Empty | None, Empty, c -> c
    | None, _, _ -> Branch { rep; len; zero; one }
    | Some (key, value), Empty, Empty -> Leaf { key; value }
    | Some (key, value), _, _ -> Bind { key; value; zero; one }

  (* Physically equal result when [key] is already bound to a value
     [equal] to [value]: the walk rebuilds a node only when the child it
     descended into came back changed, so a no-op write allocates nothing
     beyond the flag and callers detect it with one [==]. *)
  let add' ~equal key value t =
    let klen = K.length key in
    let replaced = ref false in
    (* Bits [0, lo) of [key] are already known to match the subtree;
       [rep]/[len] are the representative and span end of node [t]. *)
    let rec descend lo t rep len =
      let stop = if klen < len then klen else len in
      let d = K.diverge key rep lo stop in
      if d < stop then
        (* The key diverges inside this node's compressed span: split
           into a branch point at the first differing bit. *)
        if K.bit key d then
          Branch { rep = key; len = d; zero = t; one = Leaf { key; value } }
        else Branch { rep = key; len = d; zero = Leaf { key; value }; one = t }
      else if klen < len then
        (* The key ends inside the span: bind it on a node above. *)
        if K.bit rep klen then Bind { key; value; zero = Empty; one = t }
        else Bind { key; value; zero = t; one = Empty }
      else if klen = len then (
        match t with
        | Leaf { value = v; _ } ->
            replaced := true;
            if equal v value then t else Leaf { key; value }
        | Bind { value = v; zero; one; _ } ->
            replaced := true;
            if equal v value then t else Bind { key; value; zero; one }
        | Branch { zero; one; _ } -> Bind { key; value; zero; one }
        | Empty -> assert false)
      else if K.bit key len then (
        match t with
        | Leaf { key = k; value = v } ->
            Bind { key = k; value = v; zero = Empty; one = go (len + 1) Empty }
        | Bind { key = k; value = v; zero; one } ->
            let one' = go (len + 1) one in
            if one' == one then t
            else Bind { key = k; value = v; zero; one = one' }
        | Branch { rep; len; zero; one } ->
            let one' = go (len + 1) one in
            if one' == one then t else Branch { rep; len; zero; one = one' }
        | Empty -> assert false)
      else
        match t with
        | Leaf { key = k; value = v } ->
            Bind { key = k; value = v; zero = go (len + 1) Empty; one = Empty }
        | Bind { key = k; value = v; zero; one } ->
            let zero' = go (len + 1) zero in
            if zero' == zero then t
            else Bind { key = k; value = v; zero = zero'; one }
        | Branch { rep; len; zero; one } ->
            let zero' = go (len + 1) zero in
            if zero' == zero then t else Branch { rep; len; zero = zero'; one }
        | Empty -> assert false
    and go lo t =
      match t with
      | Empty -> Leaf { key; value }
      | Leaf { key = k; _ } | Bind { key = k; _ } ->
          descend lo t k (K.length k)
      | Branch { rep; len; _ } -> descend lo t rep len
    in
    let t = go 0 t in
    (t, !replaced)

  let add key value t = fst (add' ~equal:( == ) key value t)

  (* Physically equal result when the key is unbound, so callers can
     detect a no-op without a separate [mem] walk. *)
  let remove key t =
    let klen = K.length key in
    let rec go lo t =
      match t with
      | Empty -> t
      | Leaf { key = k; _ } ->
          let len = K.length k in
          if klen <> len then t
          else if K.diverge key k lo len < len then t
          else Empty
      | Bind { key = k; value = v; zero; one } ->
          let len = K.length k in
          if klen < len then t
          else if K.diverge key k lo len < len then t
          else if klen = len then node k len None zero one
          else if K.bit key len then
            let one' = go (len + 1) one in
            if one' == one then t
            else Bind { key = k; value = v; zero; one = one' }
          else
            let zero' = go (len + 1) zero in
            if zero' == zero then t
            else Bind { key = k; value = v; zero = zero'; one }
      | Branch { rep; len; zero; one } ->
          (* Bound keys below a branch point are strictly longer. *)
          if klen <= len then t
          else if K.diverge key rep lo len < len then t
          else if K.bit key len then
            let one' = go (len + 1) one in
            if one' == one then t else node rep len None zero one'
          else
            let zero' = go (len + 1) zero in
            if zero' == zero then t else node rep len None zero' one
    in
    go 0 t

  let find key t =
    let klen = K.length key in
    let rec go lo t =
      match t with
      | Empty -> None
      | Leaf { key = k; value } ->
          let len = K.length k in
          if klen = len && K.diverge key k lo len = len then Some value
          else None
      | Bind { key = k; value; zero; one } ->
          let len = K.length k in
          if klen < len then None
          else if K.diverge key k lo len < len then None
          else if klen = len then Some value
          else go (len + 1) (if K.bit key len then one else zero)
      | Branch { rep; len; zero; one } ->
          if klen <= len then None
          else if K.diverge key rep lo len < len then None
          else go (len + 1) (if K.bit key len then one else zero)
    in
    go 0 t

  let mem key t = match find key t with Some _ -> true | None -> false

  (* The binding of the longest stored key that is a prefix of [key]. *)
  let longest_match key t =
    let klen = K.length key in
    let rec go lo best t =
      match t with
      | Empty -> best
      | Leaf { key = k; value } ->
          let len = K.length k in
          if klen < len then best
          else if K.diverge key k lo len < len then best
          else Some (k, value)
      | Bind { key = k; value; zero; one } ->
          let len = K.length k in
          if klen < len then best
          else if K.diverge key k lo len < len then best
          else if klen = len then Some (k, value)
          else
            go (len + 1) (Some (k, value)) (if K.bit key len then one else zero)
      | Branch { rep; len; zero; one } ->
          if klen <= len then best
          else if K.diverge key rep lo len < len then best
          else go (len + 1) best (if K.bit key len then one else zero)
    in
    go 0 None t

  (* All stored bindings whose key is a prefix of [key], shortest first. *)
  let matches key t =
    let klen = K.length key in
    let rec go lo acc t =
      match t with
      | Empty -> List.rev acc
      | Leaf { key = k; value } ->
          let len = K.length k in
          if klen < len then List.rev acc
          else if K.diverge key k lo len < len then List.rev acc
          else List.rev ((k, value) :: acc)
      | Bind { key = k; value; zero; one } ->
          let len = K.length k in
          if klen < len then List.rev acc
          else if K.diverge key k lo len < len then List.rev acc
          else
            let acc = (k, value) :: acc in
            if klen = len then List.rev acc
            else go (len + 1) acc (if K.bit key len then one else zero)
      | Branch { rep; len; zero; one } ->
          if klen <= len then List.rev acc
          else if K.diverge key rep lo len < len then List.rev acc
          else go (len + 1) acc (if K.bit key len then one else zero)
    in
    go 0 [] t

  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Leaf { key; value } -> f key value acc
    | Bind { key; value; zero; one } -> fold f one (fold f zero (f key value acc))
    | Branch { zero; one; _ } -> fold f one (fold f zero acc)

  let iter f t = fold (fun k v () -> f k v) t ()

  let cardinal t = fold (fun _ _ n -> n + 1) t 0

  let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

  let of_list bindings =
    List.fold_left (fun t (k, v) -> add k v t) empty bindings

  let rec map f t =
    match t with
    | Empty -> Empty
    | Leaf { key; value } -> Leaf { key; value = f key value }
    | Bind { key; value; zero; one } ->
        Bind { key; value = f key value; zero = map f zero; one = map f one }
    | Branch { rep; len; zero; one } ->
        Branch { rep; len; zero = map f zero; one = map f one }

  let rec filter f t =
    match t with
    | Empty -> Empty
    | Leaf { key; value } -> if f key value then t else Empty
    | Bind { key; value; zero; one } ->
        let binding = if f key value then Some (key, value) else None in
        node key (K.length key) binding (filter f zero) (filter f one)
    | Branch { rep; len; zero; one } ->
        node rep len None (filter f zero) (filter f one)
end

(* IPv4 routing tables. *)
module V4 = Make (struct
  type t = Prefix.t

  let length = Prefix.length
  let bit = Prefix.bit
  let equal = Prefix.equal

  (* High [len] bits of a 32-bit word. *)
  let mask len = (0xffffffff lsl (32 - len)) land 0xffffffff

  let diverge a b lo hi =
    if lo >= hi then hi
    else
      let x =
        Int32.to_int
          (Int32.logxor
             (Ipv4.to_int32 (Prefix.network a))
             (Ipv4.to_int32 (Prefix.network b)))
        land 0xffffffff
      in
      let x = x land mask hi land lnot (mask lo) in
      if x = 0 then hi else msb32 x
end)

(* IPv6 routing tables. *)
module V6 = Make (struct
  type t = Prefix_v6.t

  let length = Prefix_v6.length
  let bit = Prefix_v6.bit
  let equal = Prefix_v6.equal

  (* High [len] bits of a 64-bit half. *)
  let mask64 len =
    if len <= 0 then 0L
    else if len >= 64 then -1L
    else Int64.shift_left (-1L) (64 - len)

  let msb64 x =
    let hi32 = Int64.to_int (Int64.shift_right_logical x 32) land 0xffffffff in
    if hi32 <> 0 then msb32 hi32
    else 32 + msb32 (Int64.to_int x land 0xffffffff)

  let diverge a b lo hi =
    if lo >= hi then hi
    else begin
      let na = Prefix_v6.network a and nb = Prefix_v6.network b in
      let d = ref hi in
      (if lo < 64 then
         let h = min hi 64 in
         let x =
           Int64.logand
             (Int64.logxor na.Ipv6.hi nb.Ipv6.hi)
             (Int64.logand (mask64 h) (Int64.lognot (mask64 lo)))
         in
         if x <> 0L then d := msb64 x);
      (if !d = hi && hi > 64 then
         let l = max lo 64 - 64 and h = hi - 64 in
         let x =
           Int64.logand
             (Int64.logxor na.Ipv6.lo nb.Ipv6.lo)
             (Int64.logand (mask64 h) (Int64.lognot (mask64 l)))
         in
         if x <> 0L then d := 64 + msb64 x);
      !d
    end
end)

(* Longest-prefix match against a host address. *)
let lookup_v4 addr table = V4.longest_match (Prefix.make addr 32) table
let lookup_v6 addr table = V6.longest_match (Prefix_v6.make addr 128) table
