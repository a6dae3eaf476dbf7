(* Address-to-stripe mapping (paper §3.3, Figure 1).

   The paper shifts a byte address right by [log2 granularity_bytes] and
   masks with [table_size - 1].  Our addresses are word indices, so the
   shift amount is [log2 granularity_words]; the paper's default of 2^4
   bytes = four 32-bit words corresponds to [granularity_words = 4].

   Having several consecutive words share a stripe can create *false
   conflicts* between unrelated words; Figure 13 / Table 2 sweep this
   parameter.  Granularity and table size must both be powers of two. *)

type t = {
  log2_gran : int;  (** log2 of the stripe size in words *)
  table_bits : int;  (** log2 of the lock-table entry count *)
  mask : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ?(granularity_words = 4) ?(table_bits = 18) () =
  if not (is_pow2 granularity_words) then
    invalid_arg "Stripe.create: granularity must be a power of two";
  if table_bits < 1 || table_bits > 28 then
    invalid_arg "Stripe.create: unreasonable table size";
  {
    log2_gran = log2 granularity_words;
    table_bits;
    mask = (1 lsl table_bits) - 1;
  }

let granularity_words t = 1 lsl t.log2_gran
let table_size t = 1 lsl t.table_bits

(** Lock-table index covering word address [addr]. *)
let[@inline] index t addr = (addr lsr t.log2_gran) land t.mask

(** Whether two addresses necessarily share a lock-table entry. *)
let same_stripe t a b = index t a = index t b
