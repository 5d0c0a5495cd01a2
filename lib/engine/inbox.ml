include Aat_runtime.Inbox
