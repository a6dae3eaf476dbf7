(* SplitMix64 pseudo-random generator.

   Each simulated thread owns one generator, seeded deterministically from
   (global seed, thread id), so every experiment is reproducible and
   independent of scheduling.  The stdlib [Random] module is avoided because
   its global state would make runs depend on call order across threads.

   The state lives in an 8-byte buffer (a mutable [int64] field boxes on
   every store), so with the helpers below inlined a draw allocates nothing. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_state z =
  let t = Bytes.create 8 in
  set64 t 0 z;
  t

let create seed = of_state (Int64.of_int seed)

(* SplitMix64 finalizer: a bijective avalanche of the whole word. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Derive a thread-local generator from a global seed and a thread id.
    The seed is avalanched through a SplitMix64 finalizer before the
    golden-ratio thread offset is added: combining the raw seed linearly
    would alias distinct (seed, tid) pairs onto one stream (seed s at tid
    t equals seed s+phi at tid t-1). *)
let thread_state ~seed ~tid =
  Int64.add
    (Int64.mul (Int64.of_int (tid + 1)) 0x9E3779B97F4A7C15L)
    (mix64 (Int64.of_int seed))

let for_thread ~seed ~tid = of_state (thread_state ~seed ~tid)

let[@inline] next64 t =
  let z = Int64.add (get64 t 0) 0x9E3779B97F4A7C15L in
  set64 t 0 z;
  mix64 z

(** Non-negative int drawn uniformly from the full 62-bit range. *)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

(** [int t n] is uniform in [0, n). Requires [n > 0].

    Rejection sampling: a draw landing in the final partial block of size
    [n] at the top of the 62-bit range is discarded, otherwise the result
    would be biased towards small residues.  At most one extra draw is
    needed in expectation even for the worst bound.  [int] inlines the
    draw that is accepted; only a rejection calls out to [draw]. *)
let rec draw t n =
  let x = bits t in
  let r = x mod n in
  (* [x] is accepted iff it falls in a complete block, i.e. the block
     containing it fits below 2^62: x - r + (n-1) must not overflow. *)
  if x - r + (n - 1) < 0 then draw t n else r

let[@inline] int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let x = bits t in
  let r = x mod n in
  if x - r + (n - 1) < 0 then draw t n else r

(** [float t x] is uniform in [0, x). *)
let float t x =
  let f = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  f /. 9007199254740992. *. x

(** Bernoulli draw: true with probability [p]. *)
let chance t p = float t 1.0 < p

(** Fisher-Yates shuffle of an array, in place. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
