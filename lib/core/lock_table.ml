(* SwissTM's global lock table (paper §3, §3.3).

   Each memory stripe maps to a pair of locks:

   - [w_lock] — acquired *eagerly* by a writer with a CAS.  Unlocked = 0,
     locked = owner's thread id + 1 (the C implementation stores a pointer
     to the owner's write-log entry; an id into the descriptor table carries
     the same information here).
   - [r_lock] — when unlocked holds the stripe's version number shifted
     left by one (LSB = 0); equal to 1 when locked.  Acquired only at
     commit time by the stripe's w-lock owner, with a plain store (no CAS
     needed, paper §3.3), to stop readers from observing the write-back.

   The two locks of an entry are adjacent words in the C implementation
   and share a cache line: touching the w-lock makes the r-lock access a
   hit.  The table is one [Runtime.Line_table] with a two-cell line per
   stripe — cell [r_col] the r-lock, cell [w_col] the w-lock — built on
   the stripe's first access. *)

let w_unlocked = 0
let r_locked = 1

let r_col = 0
let w_col = 1

(* r-lock encoding *)
let is_r_locked v = v land 1 = 1
let version_of v = v lsr 1
let encode_version ver = ver lsl 1

(* w-lock encoding *)
let w_owner_of v = v - 1 (* valid only when v <> w_unlocked *)
let encode_w_owner tid = tid + 1

let create stripe =
  Runtime.Line_table.create
    (Memory.Stripe.table_size stripe)
    ~init:[| encode_version 0; w_unlocked |]
