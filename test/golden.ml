(* Byte-exact comparison against checked-in files under test/golden/.
   On mismatch (or a missing golden) the actual bytes are written next
   to the test as NAME.actual, so the golden can be inspected and
   refreshed deliberately. *)

let dir =
  if Sys.file_exists "golden" && Sys.is_directory "golden" then "golden"
  else Filename.concat "test" "golden"

let write_actual name actual =
  let out = name ^ ".actual" in
  let oc = open_out_bin out in
  output_string oc actual;
  close_out oc;
  out

let check ~name actual =
  let path = Filename.concat dir name in
  if not (Sys.file_exists path) then
    Alcotest.failf "golden %s missing; actual bytes written to %s" path
      (write_actual name actual)
  else begin
    let ic = open_in_bin path in
    let expected = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if not (String.equal expected actual) then
      Alcotest.failf
        "%s differs from golden (actual bytes written to %s; diff and copy \
         over the golden if the change is intended)"
        name (write_actual name actual)
  end
