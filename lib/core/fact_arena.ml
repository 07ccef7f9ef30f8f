(* Flat fact-table backend: word-addressed bitsets over the application
   address space.

   The functional fact structures ([Interval_set], [Set.Make (Int)]) are
   the reference semantics; this module is the raw-speed twin.  A fact
   set is a run of 64-bit words starting at word [off] of the (infinite,
   zero-extended) address-indexed bit vector, so GEN/KILL meets and
   joins batch 64 addresses per [logand]/[logor] instead of walking an
   element-wise fold.  Canonical form makes structural equality semantic
   equality, which the differential battery leans on.

   Only non-negative addresses are representable: every producer
   (trace codec varints, the workload generators, the QA grid
   generators) already guarantees that, and constructors raise
   [Invalid_argument] rather than silently misfile a negative key. *)

let arena_labels = [ ("backend", "flat") ]
let m_arena_bytes = Obs.Counter.make ~labels:arena_labels "state.arena.bytes"
let m_arena_grows = Obs.Counter.make ~labels:arena_labels "state.arena.grows"

(* Every fresh fact-set buffer is accounted to [state.arena.bytes] —
   Bitset operation results and Dense arenas alike — so a [--stats] run
   under [--state flat] shows the backend's cumulative allocation
   footprint.  [state.arena.grows] counts Dense capacity doublings.
   With no sink installed this is one boolean load per operation (not
   per word), preserving the null-sink discipline. *)
let count_bytes n = if Obs.enabled () then Obs.Counter.add m_arena_bytes n

module Bitset = struct
  (* [bits] holds words [off, off + length/8) of the bit vector;
     invariants: [Bytes.length bits] is a multiple of 8, and unless the
     set is empty the first and last words are nonzero (both ends
     trimmed, so equal sets are structurally equal).  The empty set is
     uniquely [{ off = 0; bits = "" }]. *)
  type t = { off : int; bits : Bytes.t }

  let empty = { off = 0; bits = Bytes.empty }
  let is_empty s = Bytes.length s.bits = 0
  let nwords s = Bytes.length s.bits lsr 3
  let wget b i = Bytes.get_int64_ne b (i lsl 3)
  let wset b i v = Bytes.set_int64_ne b (i lsl 3) v

  let canon off bits =
    let n = Bytes.length bits lsr 3 in
    let lo = ref 0 in
    while !lo < n && wget bits !lo = 0L do
      incr lo
    done;
    if !lo = n then empty
    else begin
      let hi = ref (n - 1) in
      while wget bits !hi = 0L do
        decr hi
      done;
      if !lo = 0 && !hi = n - 1 then { off; bits }
      else
        {
          off = off + !lo;
          bits = Bytes.sub bits (!lo lsl 3) ((!hi - !lo + 1) lsl 3);
        }
    end

  (* Set bits [max lo w*64, min hi (w+1)*64) of each word [w] covered by
     [\[lo, hi)], into [bits] whose word 0 is absolute word [base]. *)
  let blit_range bits ~base lo hi =
    let w0 = lo asr 6 and w1 = (hi - 1) asr 6 in
    for w = w0 to w1 do
      let from = if w = w0 then lo land 63 else 0 in
      let upto = if w = w1 then ((hi - 1) land 63) + 1 else 64 in
      let count = upto - from in
      let mask =
        if count = 64 then -1L
        else Int64.shift_left (Int64.sub (Int64.shift_left 1L count) 1L) from
      in
      let j = w - base in
      wset bits j (Int64.logor (wget bits j) mask)
    done

  let range lo hi =
    if hi <= lo then empty
    else if lo < 0 then invalid_arg "Fact_arena.Bitset.range: negative"
    else begin
      let w0 = lo asr 6 and w1 = (hi - 1) asr 6 in
      count_bytes ((w1 - w0 + 1) lsl 3);
      let bits = Bytes.make ((w1 - w0 + 1) lsl 3) '\000' in
      blit_range bits ~base:w0 lo hi;
      { off = w0; bits }
    end

  let singleton x = range x (x + 1)

  let mem x s =
    if x < 0 then false
    else
      let j = (x asr 6) - s.off in
      j >= 0
      && j < nwords s
      && Int64.logand (wget s.bits j) (Int64.shift_left 1L (x land 63)) <> 0L

  (* The word loops below index each operand's words directly instead of
     going through a bounds-checking word-of-the-infinite-vector helper:
     a function returning [int64] boxes its result on every call, and
     these loops are the flat backend's whole reason to exist.  Directly
     nested [Bytes.get_int64_ne]/[Int64] primitives stay unboxed
     (pinned by the Gc.minor_words regression test in test_obs.ml for
     the Dense ops). *)
  let union a b =
    if is_empty a then b
    else if is_empty b then a
    else begin
      let lo = min a.off b.off in
      let hi = max (a.off + nwords a) (b.off + nwords b) in
      count_bytes ((hi - lo) lsl 3);
      let bits = Bytes.make ((hi - lo) lsl 3) '\000' in
      Bytes.blit a.bits 0 bits ((a.off - lo) lsl 3) (Bytes.length a.bits);
      let db = b.off - lo in
      for i = 0 to nwords b - 1 do
        wset bits (db + i)
          (Int64.logor (wget bits (db + i)) (wget b.bits i))
      done;
      (* Both ends inherit a nonzero word from one operand: canonical. *)
      { off = lo; bits }
    end

  let inter a b =
    if is_empty a || is_empty b then empty
    else begin
      let lo = max a.off b.off in
      let hi = min (a.off + nwords a) (b.off + nwords b) in
      if hi <= lo then empty
      else begin
        count_bytes ((hi - lo) lsl 3);
        let bits = Bytes.create ((hi - lo) lsl 3) in
        let da = lo - a.off and db = lo - b.off in
        for i = 0 to hi - lo - 1 do
          wset bits i
            (Int64.logand (wget a.bits (da + i)) (wget b.bits (db + i)))
        done;
        canon lo bits
      end
    end

  let diff a b =
    if is_empty a then empty
    else if
      is_empty b || b.off + nwords b <= a.off || b.off >= a.off + nwords a
    then a
    else begin
      let n = nwords a in
      count_bytes (n lsl 3);
      let bits = Bytes.sub a.bits 0 (n lsl 3) in
      let lo = max a.off b.off and hi = min (a.off + n) (b.off + nwords b) in
      for w = lo to hi - 1 do
        let i = w - a.off and j = w - b.off in
        wset bits i
          (Int64.logand (wget bits i) (Int64.lognot (wget b.bits j)))
      done;
      canon a.off bits
    end

  let equal a b = a.off = b.off && Bytes.equal a.bits b.bits

  let disjoint a b =
    let lo = max a.off b.off in
    let hi = min (a.off + nwords a) (b.off + nwords b) in
    let ok = ref true in
    let i = ref lo in
    while !ok && !i < hi do
      if
        Int64.logand (wget a.bits (!i - a.off)) (wget b.bits (!i - b.off))
        <> 0L
      then ok := false;
      incr i
    done;
    !ok

  let subset a b =
    (* Canonical end words are nonzero, so an [a] range poking out of
       [b]'s range cannot be covered. *)
    if is_empty a then true
    else if a.off < b.off || a.off + nwords a > b.off + nwords b then false
    else begin
      let d = a.off - b.off in
      let ok = ref true in
      let i = ref 0 in
      let n = nwords a in
      while !ok && !i < n do
        if
          Int64.logand (wget a.bits !i) (Int64.lognot (wget b.bits (d + !i)))
          <> 0L
        then ok := false;
        incr i
      done;
      !ok
    end

  (* SWAR popcount: this compiler predates a stdlib [Int64.popcount]. *)
  let popcount64 x =
    let open Int64 in
    let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
    let x =
      add
        (logand x 0x3333333333333333L)
        (logand (shift_right_logical x 2) 0x3333333333333333L)
    in
    let x = logand (add x (shift_right_logical x 4)) 0x0f0f0f0f0f0f0f0fL in
    to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

  let cardinal s =
    let n = ref 0 in
    for i = 0 to nwords s - 1 do
      n := !n + popcount64 (wget s.bits i)
    done;
    !n

  let iter f s =
    for i = 0 to nwords s - 1 do
      let w = wget s.bits i in
      if w <> 0L then
        let base = (s.off + i) lsl 6 in
        for b = 0 to 63 do
          if Int64.logand w (Int64.shift_left 1L b) <> 0L then f (base lor b)
        done
    done

  let elements s =
    let acc = ref [] in
    iter (fun x -> acc := x :: !acc) s;
    List.rev !acc

  let fold f s init =
    let acc = ref init in
    iter (fun x -> acc := f x !acc) s;
    !acc

  let choose s =
    if is_empty s then None
    else begin
      let w = wget s.bits 0 in
      let b = ref 0 in
      while Int64.logand w (Int64.shift_left 1L !b) = 0L do
        incr b
      done;
      Some ((s.off lsl 6) lor !b)
    end

  let add x s = union s (singleton x)

  let of_list xs =
    match xs with
    | [] -> empty
    | x0 :: _ ->
      let lo = ref x0 and hi = ref x0 in
      List.iter
        (fun x ->
          if x < 0 then invalid_arg "Fact_arena.Bitset.of_list: negative";
          if x < !lo then lo := x;
          if x > !hi then hi := x)
        xs;
      let w0 = !lo asr 6 and w1 = !hi asr 6 in
      count_bytes ((w1 - w0 + 1) lsl 3);
      let bits = Bytes.make ((w1 - w0 + 1) lsl 3) '\000' in
      List.iter
        (fun x ->
          let j = (x asr 6) - w0 in
          wset bits j
            (Int64.logor (wget bits j) (Int64.shift_left 1L (x land 63))))
        xs;
      (* First and last words each hold an extremal element: canonical. *)
      { off = w0; bits }

  (* n-ary union in one pass: bounds scan, one buffer, one OR sweep per
     operand.  The extremal offsets come from nonzero end words of their
     operands, so the result is canonical without a trim pass. *)
  let union_all = function
    | [] -> empty
    | [ s ] -> s
    | ss ->
      let lo = ref max_int and hi = ref min_int in
      List.iter
        (fun s ->
          if not (is_empty s) then begin
            if s.off < !lo then lo := s.off;
            let e = s.off + nwords s in
            if e > !hi then hi := e
          end)
        ss;
      if !hi <= !lo then empty
      else begin
        count_bytes ((!hi - !lo) lsl 3);
        let bits = Bytes.make ((!hi - !lo) lsl 3) '\000' in
        List.iter
          (fun s ->
            let n = nwords s in
            for i = 0 to n - 1 do
              let j = s.off - !lo + i in
              wset bits j (Int64.logor (wget bits j) (wget s.bits i))
            done)
          ss;
        { off = !lo; bits }
      end

  let to_intervals s =
    let runs = ref [] in
    let start = ref (-1) and prev = ref (-2) in
    iter
      (fun x ->
        if x = !prev + 1 then prev := x
        else begin
          if !start >= 0 then runs := (!start, !prev + 1) :: !runs;
          start := x;
          prev := x
        end)
      s;
    if !start >= 0 then runs := (!start, !prev + 1) :: !runs;
    Interval_set.of_intervals (List.rev !runs)

  let of_intervals is =
    match Interval_set.intervals is with
    | [] -> empty
    | ivs ->
      let lo = fst (List.hd ivs) in
      let hi = List.fold_left (fun _ (_, h) -> h) 0 ivs in
      if lo < 0 then invalid_arg "Fact_arena.Bitset.of_intervals: negative";
      let w0 = lo asr 6 and w1 = (hi - 1) asr 6 in
      count_bytes ((w1 - w0 + 1) lsl 3);
      let bits = Bytes.make ((w1 - w0 + 1) lsl 3) '\000' in
      List.iter (fun (l, h) -> blit_range bits ~base:w0 l h) ivs;
      { off = w0; bits }

  let pp ppf s = Interval_set.pp ppf (to_intervals s)
end

(* Mutable scratch arena: the construction side of the flat backend.
   Bit vector rooted at address 0 with geometric growth, in-place
   (allocation-free once grown) meet/join against immutable bitsets, and
   [freeze] to cut a canonical {!Bitset.t}.  Not thread-safe: each pool
   worker builds into its own arena. *)
module Dense = struct
  type t = { mutable bits : Bytes.t }

  let alloc_words n =
    count_bytes (n lsl 3);
    Bytes.make (n lsl 3) '\000'

  let create ?(capacity_bits = 512) () =
    let words = max 1 ((capacity_bits + 63) asr 6) in
    { bits = alloc_words words }

  let capacity_bits t = Bytes.length t.bits lsl 3
  let words t = Bytes.length t.bits lsr 3

  let grow t needed_words =
    let old = words t in
    if needed_words > old then begin
      let n = max needed_words (2 * old) in
      let bits = alloc_words n in
      if Obs.enabled () then Obs.Counter.incr m_arena_grows;
      Bytes.blit t.bits 0 bits 0 (Bytes.length t.bits);
      t.bits <- bits
    end

  let set t x =
    if x < 0 then invalid_arg "Fact_arena.Dense.set: negative";
    let w = x asr 6 in
    grow t (w + 1);
    Bytes.set_int64_ne t.bits (w lsl 3)
      (Int64.logor
         (Bytes.get_int64_ne t.bits (w lsl 3))
         (Int64.shift_left 1L (x land 63)))

  let unset t x =
    if x >= 0 then
      let w = x asr 6 in
      if w < words t then
        Bytes.set_int64_ne t.bits (w lsl 3)
          (Int64.logand
             (Bytes.get_int64_ne t.bits (w lsl 3))
             (Int64.lognot (Int64.shift_left 1L (x land 63))))

  let get t x =
    x >= 0
    &&
    let w = x asr 6 in
    w < words t
    && Int64.logand
         (Bytes.get_int64_ne t.bits (w lsl 3))
         (Int64.shift_left 1L (x land 63))
       <> 0L

  let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

  let union_into t (b : Bitset.t) =
    let nb = Bytes.length b.Bitset.bits lsr 3 in
    if nb > 0 then begin
      grow t (b.Bitset.off + nb);
      for i = 0 to nb - 1 do
        let j = b.Bitset.off + i in
        Bytes.set_int64_ne t.bits (j lsl 3)
          (Int64.logor
             (Bytes.get_int64_ne t.bits (j lsl 3))
             (Bytes.get_int64_ne b.Bitset.bits (i lsl 3)))
      done
    end

  let inter_into t (b : Bitset.t) =
    (* Zero outside [b]'s word range, mask inside it — split so the word
       loop reads [b.bits] directly (see the unboxing note in Bitset). *)
    let nb = Bytes.length b.Bitset.bits lsr 3 in
    let n = words t in
    let lo = min n (max 0 b.Bitset.off) in
    let hi = min n (b.Bitset.off + nb) in
    if hi <= lo then Bytes.fill t.bits 0 (n lsl 3) '\000'
    else begin
      Bytes.fill t.bits 0 (lo lsl 3) '\000';
      for j = lo to hi - 1 do
        let i = j - b.Bitset.off in
        Bytes.set_int64_ne t.bits (j lsl 3)
          (Int64.logand
             (Bytes.get_int64_ne t.bits (j lsl 3))
             (Bytes.get_int64_ne b.Bitset.bits (i lsl 3)))
      done;
      if hi < n then Bytes.fill t.bits (hi lsl 3) ((n - hi) lsl 3) '\000'
    end

  let diff_into t (b : Bitset.t) =
    let nb = Bytes.length b.Bitset.bits lsr 3 in
    let lo = max 0 b.Bitset.off and hi = min (words t) (b.Bitset.off + nb) in
    for j = lo to hi - 1 do
      let i = j - b.Bitset.off in
      Bytes.set_int64_ne t.bits (j lsl 3)
        (Int64.logand
           (Bytes.get_int64_ne t.bits (j lsl 3))
           (Int64.lognot (Bytes.get_int64_ne b.Bitset.bits (i lsl 3))))
    done

  let freeze t =
    let n = words t in
    let lo = ref 0 in
    while !lo < n && Bytes.get_int64_ne t.bits (!lo lsl 3) = 0L do
      incr lo
    done;
    if !lo = n then Bitset.empty
    else begin
      let hi = ref (n - 1) in
      while Bytes.get_int64_ne t.bits (!hi lsl 3) = 0L do
        decr hi
      done;
      {
        Bitset.off = !lo;
        bits = Bytes.sub t.bits (!lo lsl 3) ((!hi - !lo + 1) lsl 3);
      }
    end
end

(* The fact-set operations a Must/May lifeguard body is generic over:
   {!Dataflow.SET} plus the address-range constructors and queries the
   transfer functions and reports need.  [Interval_facts] is the
   functional reference, {!Bitset} the flat backend; reports always
   round-trip through {!Interval_set.t} so fingerprints are
   representation-independent. *)
module type FACTS = sig
  include Dataflow.SET

  val range : int -> int -> t
  val singleton : int -> t
  val mem : int -> t -> bool
  val disjoint : t -> t -> bool
  val subset : t -> t -> bool
  val cardinal : t -> int

  val of_list : int list -> t
  (** Batch constructor: equals folding {!singleton} unions, but both
      backends build the result once — hot loops that collect
      per-instruction addresses should accumulate a list and build once. *)

  val union_all : t list -> t
  (** n-ary {!union}; the flat backend allocates the result once, the
      functional one unions into its tallest (so roughly largest) operand. *)

  val to_intervals : t -> Interval_set.t
  val of_intervals : Interval_set.t -> t
end

module Interval_facts : FACTS with type t = Interval_set.t = struct
  include Interval_set

  (* Sort once, coalesce into runs, build the tree once: [of_intervals]
     takes canonical input in linear time. *)
  let of_list xs =
    let rec runs lo hi acc = function
      | [] -> List.rev ((lo, hi) :: acc)
      | x :: rest when x = hi -> runs lo (hi + 1) acc rest
      | x :: rest -> runs x (x + 1) ((lo, hi) :: acc) rest
    in
    match List.sort_uniq Int.compare xs with
    | [] -> empty
    | x :: rest -> of_intervals (runs x (x + 1) [] rest)

  let to_intervals = Fun.id
  let of_intervals = Fun.id
end

module Bitset_facts : FACTS with type t = Bitset.t = Bitset
