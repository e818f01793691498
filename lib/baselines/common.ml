(* One executed operation's result, as servers ship it back to the
   baseline coordinators. *)

open Kernel

type rres = {
  b_key : Types.key;
  b_value : Types.value;
  b_vid : int;
  b_is_write : bool;
}

let result_of_read (v : Mvstore.Store.version) key =
  { b_key = key; b_value = v.Mvstore.Store.value; b_vid = v.Mvstore.Store.vid; b_is_write = false }

let result_of_write (v : Mvstore.Store.version) key =
  { b_key = key; b_value = v.Mvstore.Store.value; b_vid = v.Mvstore.Store.vid; b_is_write = true }
