(** One round's deliveries to one party — an alias of the runtime-layer
    {!Aat_runtime.Inbox}, re-exported so protocol code reads its inboxes
    as [Aat_engine.Inbox]. See there for the view contract. *)

include module type of struct
  include Aat_runtime.Inbox
end
