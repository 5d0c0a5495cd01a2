(* The shared vocabulary is declared once, in lib/runtime/types.mli; this
   alias keeps engine-level code's [Aat_engine.Types] spelling. *)
include Aat_runtime.Types
