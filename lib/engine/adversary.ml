(* The adversary interface is declared once, in lib/runtime/adversary.mli;
   this alias keeps strategy code's [Aat_engine.Adversary] spelling. *)
include Aat_runtime.Adversary
