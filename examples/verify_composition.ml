(* The paper's Section 4.2 correctness argument, reproduced:
   - base step:    each basic lock model-checked alone (SC and TSO),
   - induction:    a 2-level CLoF composition over abstract Ticketlocks,
                   with the context invariant monitored,
   - the A4 exhibit: Peterson with and without its store-load fence —
     the TSO mode must find the mutual-exclusion violation in the
     unfenced variant and pass the fenced one.

       dune exec examples/verify_composition.exe *)

module C = Clof_verify.Checker
module S = Clof_verify.Scenarios

let () =
  let failures = ref 0 in
  List.iter
    (fun { S.e_named = named; _ } ->
      let report = S.run named in
      let found = Option.is_some report.C.violation in
      let ok = found = named.S.expect_violation in
      if not ok then incr failures;
      Format.printf "%a  %s@." C.pp_report report
        (if ok then "(as expected)" else "(UNEXPECTED!)");
      match report.C.violation with
      | Some (_, trace) when named.S.expect_violation ->
          Format.printf "    offending schedule (%d steps):@."
            (List.length trace);
          List.iteri
            (fun i line -> if i < 14 then Format.printf "      %s@." line)
            trace
      | Some _ | None -> ())
    (S.suite ());
  Format.printf "@.verification scaling (Section 4.2.3):@.";
  List.iter
    (fun (depth, r) -> Format.printf "  depth %d: %a@." depth C.pp_report r)
    (S.scaling ~max_depth:3 ());
  if !failures > 0 then begin
    Format.printf "%d unexpected outcomes@." !failures;
    exit 1
  end
