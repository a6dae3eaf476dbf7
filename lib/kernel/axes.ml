(* The design-space axes of the paper's evaluation (§2, §5), as data.

   Every engine in this repo — the five classics and every composed
   design point — is a choice along four orthogonal axes:

   - [acquisition]: when write/write conflicts are detected.  [Eager]
     takes the stripe's write lock at the first write *and* freezes
     readers at encounter time (TinySTM); [Mixed] takes the write lock
     eagerly but freezes readers only for the duration of commit
     (SwissTM's eager w/w + lazy r/w split); [Lazy] buffers writes and
     acquires everything at commit (TL2); [Seqlock] is the metadata-free
     corner — no per-stripe locks at all, one global sequence lock taken
     for the duration of commit write-back (NOrec); [Bytelock] guards
     each stripe with a read-write lock — readers announce in per-stripe
     reader slots, writers own the stripe and drain readers at encounter
     time (TLRW).
   - [visibility]: whether readers announce themselves.  [Invisible]
     readers keep a private read log and validate; [Visible] readers CAS
     themselves into a shared per-stripe reader bitmap, and writers must
     drain them before publishing (RSTM's visible-read mode; [Bytelock]'s
     read slots are the same idea made blocking).
   - [validation]: how invisible reads are kept consistent.
     [Commit_time] validates the read set once, at commit, against the
     snapshot (TL2 — no extension); [Incremental] revalidates on every
     read of a too-new version and *extends* the snapshot on success
     (TinySTM/SwissTM's LSA-style extension); [Counter] only revalidates
     when the global commit counter moved (RSTM's heuristic — cheap but
     doomed transactions can observe inconsistent state, so the contract
     weakens to serializability); [Value] logs (address, value) pairs
     and revalidates by re-reading whenever the global sequence number
     moves (NOrec — needs no per-location version at all, and stays
     opaque: reads are only admitted while the whole journal is proven
     consistent with one memory snapshot).
   - [versioning]: [Redo] keeps a single version plus a redo log;
     [Multi] additionally maintains per-stripe version chains so
     read-only transactions can be served old values (MVSTM).

   The contention manager, stripe granularity and table size are not
   axes of a point: the paper sweeps them across every engine alike
   (§5, Figures 10–13), so they sit on the flat [Engines.spec] next to
   the engine family, and every engine takes them the same way.
   [Engines.point] places every engine on these axes. *)

type acquisition = Eager | Mixed | Lazy | Seqlock | Bytelock
type visibility = Invisible | Visible
type validation = Commit_time | Incremental | Counter | Value
type versioning = Redo | Multi

type point = {
  acquisition : acquisition;
  visibility : visibility;
  validation : validation;
  versioning : versioning;
}

let acquisition_name = function
  | Eager -> "eager"
  | Mixed -> "mixed"
  | Lazy -> "lazy"
  | Seqlock -> "seqlock"
  | Bytelock -> "bytelock"

let visibility_name = function Invisible -> "inv" | Visible -> "vis"

let validation_name = function
  | Commit_time -> "commit"
  | Incremental -> "incr"
  | Counter -> "counter"
  | Value -> "value"

let versioning_name = function Redo -> "redo" | Multi -> "multi"

let point_name p =
  Printf.sprintf "%s+%s+%s+%s"
    (acquisition_name p.acquisition)
    (visibility_name p.visibility)
    (validation_name p.validation)
    (versioning_name p.versioning)

(* What a design point promises about the reads of *aborted* transactions.
   The commit-counter heuristic lets doomed transactions observe
   inconsistent state between counter bumps, so only committed
   transactions are guaranteed consistent (serializability).  Every other
   composition keeps all reads consistent at all times (opacity): visible
   readers are drained before any overwrite, and both commit-time and
   incremental validation check reads against the snapshot before use. *)
type contract = Opaque | Serializable

let contract_of p =
  match (p.visibility, p.validation) with
  | Invisible, Counter -> Serializable
  | _ -> Opaque

let contract_name = function Opaque -> "opaque" | Serializable -> "serializable"
