(** The JSON writer behind every machine-readable report: the stats,
    why-late and mem reports, the trace export, the time-series windows
    and the bench baseline.  Values are pre-rendered strings, so callers
    compose objects in a fixed field order and the bytes are a pure
    function of the data. *)

val escape : string -> string
(** The body of a JSON string literal, without the quotes.  Quote,
    backslash, newline, carriage return and tab get their two-character
    escapes; other control characters are written as [\u00XX]. *)

val str : string -> string
(** A quoted, escaped JSON string. *)

val num : float -> string
(** [%.6g] of a finite float; [null] for NaN and the infinities, which
    JSON cannot spell. *)

val list : string list -> string
(** A JSON array of rendered values. *)

val obj : (string * string) list -> string
(** A JSON object of [(key, rendered value)] fields, in the given order. *)
