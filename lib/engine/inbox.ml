(* The inbox view is declared once, in lib/runtime/inbox.mli; this alias
   keeps protocol code's [Aat_engine.Inbox] spelling. *)
include Aat_runtime.Inbox
