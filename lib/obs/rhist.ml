(* Sub-bucketed log2 histogram.  Every octave is split into 32 buckets
   (~3 % relative error) and values below 64 get exact buckets; all of it
   is integer bucket arithmetic, hence deterministic.  The bucket array
   is allocated on the first observation: engines register their metric
   bundles at construction, and most are never metered. *)

let sub_bits = 5
let subs = 1 lsl sub_bits (* 32 sub-buckets per octave *)
let exact = 2 * subs (* values below 64 get exact buckets *)

(* Highest octave: 62 significant bits on 64-bit OCaml. *)
let n_buckets = exact + ((62 - sub_bits - 1) * subs)

type t = {
  mutable count : int;
  mutable sum : int;
  mutable max : int;
  mutable buckets : int array;  (* [||] until the first observation *)
}

let create () = { count = 0; sum = 0; max = 0; buckets = [||] }

let buckets t =
  if Array.length t.buckets = 0 then t.buckets <- Array.make n_buckets 0;
  t.buckets

let bits v =
  let b = ref 0 and n = ref v in
  while !n > 0 do
    incr b;
    n := !n lsr 1
  done;
  !b

let bucket_of v =
  if v < 0 then 0
  else if v < exact then v
  else begin
    let b = bits v in
    let sub = (v lsr (b - sub_bits - 1)) land (subs - 1) in
    exact + ((b - sub_bits - 2) * subs) + sub
  end

let bucket_upper i =
  if i < exact then i
  else begin
    let k = i - exact in
    let oct = k / subs and sub = k mod subs in
    ((subs + sub + 1) lsl (oct + 1)) - 1
  end

let observe t v =
  let v = if v < 0 then 0 else v in
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v > t.max then t.max <- v;
  let bs = buckets t and b = bucket_of v in
  bs.(b) <- bs.(b) + 1

let merge_into t ~into =
  into.count <- into.count + t.count;
  into.sum <- into.sum + t.sum;
  if t.max > into.max then into.max <- t.max;
  if Array.length t.buckets > 0 then begin
    let bs = buckets into in
    Array.iteri (fun i c -> bs.(i) <- bs.(i) + c) t.buckets
  end

let reset t =
  t.count <- 0;
  t.sum <- 0;
  t.max <- 0;
  Array.fill t.buckets 0 (Array.length t.buckets) 0

let count t = t.count
let sum t = t.sum
let max_value t = t.max

(* Upper bound of the smallest bucket prefix holding quantile [q]. *)
let quantile t q =
  if t.count = 0 then 0
  else begin
    let target = Float.to_int (Float.of_int t.count *. q +. 0.999999) in
    let target = if target < 1 then 1 else target in
    let acc = ref 0 and b = ref 0 in
    while !acc < target && !b < n_buckets do
      acc := !acc + t.buckets.(!b);
      if !acc < target then incr b
    done;
    (* the histogram is never observed past its top bucket, and [max]
       is exact, so clamp the report to it *)
    min (bucket_upper (min !b (n_buckets - 1))) t.max
  end
