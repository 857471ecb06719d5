(* Diagnostics infrastructure shared by every lint rule module:
   violation collection and the three output formats (text, JSON,
   SARIF 2.1.0).  Every finding fails the run; the one way to accept
   one is a [@lint.allow] with a comment saying why the rule does not
   apply. *)

type violation = { file : string; line : int; rule : string; msg : string }

(* Catalogue of every rule the suite can emit, used for SARIF rule
   metadata and --help.  Kept here so adding a rule in one of the
   rules_* modules forces the catalogue update (SARIF consumers index
   results by ruleId). *)
let catalogue =
  [
    ("DET001", "wall-clock read in simulated code");
    ("DET002", "global Random.* instead of an explicit Prng stream");
    ("DET003", "polymorphic comparison on a time-valued operand");
    ("DET004", "Obj.magic / order-leaking Hashtbl iteration");
    ("MLI001", "lib/ module without an .mli");
    ("RACE001", "parallel closure captures unprotected mutable toplevel state");
    ("RACE002", "parallel closure reaches unprotected mutable toplevel state");
    ("RACE003", "Domain.spawn outside lib/parallel");
    ("RACE004", "Atomic read-modify-write split into get and set");
    ("ALLOC001", "closure or partial application on a [@hot] path");
    ("ALLOC002", "tuple/record/list/array construction on a [@hot] path");
    ("ALLOC003", "boxing or formatting call on a [@hot] path");
    ("PARSE", "file does not parse");
  ]

let violations : violation list ref = ref []
let report ~file ~line ~rule msg = violations := { file; line; rule; msg } :: !violations

let sorted () =
  List.sort
    (fun a b ->
      let c = String.compare a.file b.file in
      if c <> 0 then c
      else
        let c = Int.compare a.line b.line in
        if c <> 0 then c
        else
          let c = String.compare a.rule b.rule in
          if c <> 0 then c else String.compare a.msg b.msg)
    !violations

(* ---------- JSON writing (no external dependency) ---------- *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_str b s =
  Buffer.add_char b '"';
  json_escape b s;
  Buffer.add_char b '"'

let to_json vs =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"softtimers-lint/2\",\n  \"violations\": [";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    { \"file\": ";
      add_str b v.file;
      Buffer.add_string b (Printf.sprintf ", \"line\": %d, \"rule\": " v.line);
      add_str b v.rule;
      Buffer.add_string b ", \"message\": ";
      add_str b v.msg;
      Buffer.add_string b " }")
    vs;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* SARIF 2.1.0, the minimal shape GitHub code scanning and IDE SARIF
   viewers accept: one run, one driver, rules catalogue, results with
   physical locations. *)
let to_sarif vs =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    "{\n\
    \  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n\
    \  \"version\": \"2.1.0\",\n\
    \  \"runs\": [ {\n\
    \    \"tool\": { \"driver\": {\n\
    \      \"name\": \"softtimers-lint\",\n\
    \      \"informationUri\": \"https://example.invalid/softtimers\",\n\
    \      \"rules\": [";
  List.iteri
    (fun i (id, desc) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n        { \"id\": ";
      add_str b id;
      Buffer.add_string b ", \"shortDescription\": { \"text\": ";
      add_str b desc;
      Buffer.add_string b " } }")
    catalogue;
  Buffer.add_string b "\n      ]\n    } },\n    \"results\": [";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n      { \"ruleId\": ";
      add_str b v.rule;
      Buffer.add_string b ", \"level\": \"error\", \"message\": { \"text\": ";
      add_str b v.msg;
      Buffer.add_string b " },\n        \"locations\": [ { \"physicalLocation\": {";
      Buffer.add_string b " \"artifactLocation\": { \"uri\": ";
      add_str b v.file;
      Buffer.add_string b
        (Printf.sprintf " }, \"region\": { \"startLine\": %d } } } ]"
           (if v.line > 0 then v.line else 1));
      Buffer.add_string b " }")
    vs;
  Buffer.add_string b "\n    ]\n  } ]\n}\n";
  Buffer.contents b
