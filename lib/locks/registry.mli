(** Packed basic locks for a given memory backend — the input set of
    the CLoF workflow (Figure 5, "NUMA-oblivious spinlocks"). *)

module Make (M : Clof_atomics.Memory_intf.S) : sig
  type packed = M.anchor Lock_intf.packed

  val ticket : packed
  val mcs : packed
  val clh : packed

  val hemlock : ctr:bool -> unit -> packed
  (** [ctr] selects the x86 CTR variant; both variants are named
      ["hem"]. *)

  val tas : packed
  val ttas : packed
  val backoff : packed
  (** The {!Tas} family: [tas], [ttas] and [bo]. *)

  val basics : ctr:bool -> packed list
  (** The paper's four generator inputs: [tkt; mcs; clh; hem], with
      Hemlock's CTR chosen per target architecture (enabled on x86,
      disabled on Armv8 — Section 3.2). *)

  val all : ctr:bool -> packed list
  (** [basics] plus the unfair locks. *)

  val find : ctr:bool -> string -> packed option
  (** Look a basic lock up by its [name]. *)
end
