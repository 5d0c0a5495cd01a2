(** The watchdog catalog: concrete {!Aat_runtime.Watchdog.t} monitors for
    the invariants the paper's definitions promise.

    Each constructor returns a {e fresh} stateful watchdog — build a new
    value per run (the campaign [Runner] takes a thunk for exactly this
    reason). Watchdogs are parameterized by extractors from the
    protocol's state type, so one catalog serves every protocol without
    this library depending on any of them.

    A watchdog violation is a diagnosis, not a crash: the engines record
    the first violation per watchdog into
    [Report.watchdog_violations] and keep running — see
    [docs/FAULTS.md] for the catalog's invariant-to-paper mapping. *)

val corruption_budget : t:int -> 's Aat_runtime.Watchdog.t
(** Fires when the corrupted-or-crashed party count exceeds [t] (the
    over-budget regime that downgrades [Violated] to [Excused]), or if
    the corruption set ever shrinks — corruption is monotone by
    construction, so a shrink means engine state corruption. *)

val spread_non_expansion :
  ?tolerance:float ->
  observe:('s -> float option) ->
  unit ->
  's Aat_runtime.Watchdog.t
(** The contraction invariant of RealAA / iterated midpoint: the envelope
    [min, max] over observable honest values must never expand from one
    round to the next. [observe] maps a party state to its current value
    when one is observable (e.g. [Bdh.observe]); [tolerance] (default
    [1e-9]) absorbs float noise. *)

val hull_containment :
  rooted:Aat_tree.Rooted.t ->
  inputs:Aat_tree.Labeled_tree.vertex array ->
  vertex_of:('s -> Aat_tree.Labeled_tree.vertex option) ->
  unit ->
  's Aat_runtime.Watchdog.t
(** Def. 2 Validity as a runtime invariant: every observable honest
    position must lie in the convex hull of honest inputs. The reference
    hull is computed at the watchdog's first check from [inputs] minus
    the then-corrupted parties (i.e. over initially-honest inputs,
    matching [Report.honest_inputs]). *)

val grade_consistency :
  grades_of:('s -> (int * 'v) list) ->
  pp_value:('v -> string) ->
  unit ->
  's Aat_runtime.Watchdog.t
(** Gradecast soundness: no two honest parties may simultaneously hold
    grade-2 results with different values for the same slot. [grades_of]
    extracts the [(slot, value)] pairs currently held at grade 2 (e.g.
    index-tagged [Gradecast.results] filtered to [G2]); values are
    compared via their [pp_value] rendering so the catalog stays
    polymorphic. *)
