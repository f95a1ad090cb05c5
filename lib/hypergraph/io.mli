(** A small text format for MULTIPROC instances, used by the CLI and the
    examples.

    {v
    # optional comments
    hypergraph <n1> <n2>
    h <task> <weight> <proc> <proc> ...
    v}

    One [h] line per hyperedge (configuration); tasks and processors are
    0-based.  Weights are decimal floats.  Hyperedge order is preserved,
    so heuristic tie-breaking is stable across a round-trip.

    Lines are trimmed of blanks (space, tab, CR, form feed); [#] starts a
    comment only as a line's first non-blank character; fields are
    separated by spaces only.  Numbers read as [int_of_string] /
    [float_of_string] read them. *)

val to_string : Graph.t -> string
(** Hyperedges grouped by task, weights as ["%g"] prints them. *)

val of_string : string -> Graph.t
(** Raises [Failure] with a line-numbered message on parse errors and
    [Invalid_argument] on semantic ones (via {!Graph.build}).  The whole
    text is scanned before any semantic check, so a parse error on any line
    wins over a semantic error on an earlier one. *)

val save : string -> Graph.t -> unit
(** [save path h]. *)

val load : string -> Graph.t
