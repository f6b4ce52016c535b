"""Per-layer tracing from outside the program.

The layers are the package modules.  ``Tracer.install()`` wraps each
module's entry points by name and rebinds every name bound to the original
object, in any loopspace module or class (``cli`` imports ``gysin_check``
by name, ``cohomology`` imports ``apply_differential``), so a call is seen
whichever way it is made.  A name that no longer exists is skipped and
listed, which keeps the trace working across refactors that delete or
rename entry points.

A call opens a span only when it crosses into a layer from another layer (or
from the benchmark); calls within a layer are counted but not timed
separately.  A layer's self time is the duration of its spans minus the
time covered by the spans they cause, and time spent in the tracer's own
hooks is excluded from every layer.  Spans are kept in memory as running
totals and written out when the run ends.

Counters are taken at the same boundaries from arguments and return values,
so the ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

PACKAGE = "loopspace"

LAYERS = ("cli", "dsl", "serialize", "gca.algebra", "gca.cohomology", "gca.linalg", "spaceforms", "bott")

ENTRY_POINTS = {
    "cli": ("main", "build_parser"),
    "dsl": ("parse", "parse_path", "document_text", "model_text", "spaceform_text", "bott_text"),
    "serialize": ("dumps", "payload", "jsonable", "model_json", "betti_json", "homotopy_json",
                  "spaceform_json", "bott_json", "index_sequence_json", "model_report_json",
                  "ring_report_json", "gysin_report_json", "certificate_json"),
    "gca.algebra": ("apply_differential", "multiply", "DgaModel.__init__", "DgaModel.basis",
                    "DgaModel.monomial_element", "DgaModel.from_coords", "DgaModel.differential_of",
                    "DgaModel.gen", "AlgebraElement.__add__", "AlgebraElement.__mul__",
                    "AlgebraElement.__pow__", "AlgebraElement.scale", "AlgebraElement.coords",
                    "AlgebraElement.homogeneous_degree"),
    "gca.cohomology": ("cohomology", "cochain_complex", "differential_matrix", "check_model",
                       "verify_ring_presentation", "quotient_ring_dims", "ComplexData.betti",
                       "ComplexData.class_coordinates", "ComplexData.is_exact",
                       "ComplexData.representative_elements", "_class_candidates"),
    "gca.linalg": ("integerize_rows", "echelon", "rank", "nullspace", "row_space_basis",
                   "column_space_basis", "solve", "IncrementalSpan.add", "IncrementalSpan.reduce",
                   "IncrementalSpan.contains"),
    "spaceforms": ("sphere_rational_homotopy", "loop_space_dims", "standard_action_data",
                   "theorem1_table", "theorem2_table", "classify_order4_extension", "theorem3_model",
                   "euler_class", "euler_action_matrices", "gysin_check", "rank_identity_totals",
                   "circle_quotient_gysin_input", "ActionData.kernel_dim", "GysinInput.euler_rank"),
    "bott": ("bott_index", "is_nondegenerate", "schwarz_even", "index_parity", "morse_matches_betti",
             "certify_theorem4", "certify_theorem5", "parity_distinct", "parity_remark_certificate",
             "quarter_turn_function", "BottFunction.build", "BottFunction.value_at",
             "IndexSequence.from_function"),
}

# one record per degree of each cochain complex, while record_degrees is set
DEGREE_FIELDS = ("job", "degree", "basis", "rows", "cols", "nnz", "rank", "max_coeff_bits")

# per-layer metrics reported by the traced run, with their units
METRICS = {
    "gca.linalg.self_s": "s",
    "gca.linalg.calls": "count",
    "gca.linalg.rank_sum": "count",
    "gca.linalg.max_coeff_bits": "bits",
    "gca.linalg.span_accept_ratio": "ratio",
    "gca.cohomology.self_s": "s",
    "gca.cohomology.matrix_cells": "count",
    "gca.cohomology.matrix_nnz": "count",
    "gca.cohomology.degrees": "count",
    "gca.cohomology.class_coordinate_calls": "count",
    "gca.cohomology.ring_candidates": "count",
    "gca.cohomology.ring_verdict_ratio": "ratio",
    "gca.algebra.self_s": "s",
    "gca.algebra.basis_monomials": "count",
    "gca.algebra.differential_calls": "count",
    "gca.algebra.product_calls": "count",
    "spaceforms.self_s": "s",
    "spaceforms.euler_matrices": "count",
    "spaceforms.gysin_degrees": "count",
    "bott.self_s": "s",
    "bott.index_calls": "count",
    "bott.candidates": "count",
    "bott.survivor_ratio": "ratio",
    "bott.transcript_entries": "count",
    "serialize.self_s": "s",
    "serialize.bytes_out": "B",
    "dsl.self_s": "s",
    "dsl.docs": "count",
    "dsl.bytes_in": "B",
    "cli.self_s": "s",
    "cli.commands": "count",
    "trace.overhead_ratio": "ratio",
}


def coeff_bits(vectors) -> int:
    """Largest numerator or denominator bit length in a list of vectors."""
    best = 0
    for vec in vectors:
        for x in vec:
            if isinstance(x, Fraction):
                best = max(best, abs(x.numerator).bit_length(), x.denominator.bit_length())
            else:
                best = max(best, abs(int(x)).bit_length())
    return best


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Wraps the entry points of every layer; see the module docstring."""

    def __init__(self):
        self.skipped: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.record_degrees = False
        self.job = None
        self.reset()

    # -- state -----------------------------------------------------------------

    def reset(self) -> None:
        """Start a new pass: clear running totals and counters."""
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.hook_time = 0.0
        self.spans = 0
        self.counts: Counter = Counter()
        self.hook_errors: Counter = Counter()
        self.degree_records: list[list] = []
        self._bases: dict = {}
        self._pending: dict[int, tuple[object, list]] = {}

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current pass (trace.overhead_ratio is
        added by the caller, which times both kinds of pass)."""
        c = self.counts
        values = {f"{layer}.self_s": self.self_time[layer] for layer in LAYERS}
        values.update({
            "gca.linalg.calls": c["gca.linalg.calls"],
            "gca.linalg.rank_sum": c["rank_sum"],
            "gca.linalg.max_coeff_bits": c["max_coeff_bits"],
            "gca.linalg.span_accept_ratio": c["span_accepted"] / c["span_attempts"] if c["span_attempts"] else 0.0,
            "gca.cohomology.matrix_cells": c["matrix_cells"],
            "gca.cohomology.matrix_nnz": c["matrix_nnz"],
            "gca.cohomology.degrees": c["degrees"],
            "gca.cohomology.class_coordinate_calls": c["class_coordinates"],
            "gca.cohomology.ring_candidates": c["ring_candidates"],
            "gca.cohomology.ring_verdict_ratio": c["ring_verdicts"] / c["ring_candidates"] if c["ring_candidates"] else 0.0,
            "gca.algebra.basis_monomials": c["basis_monomials"],
            "gca.algebra.differential_calls": c["differential_calls"],
            "gca.algebra.product_calls": c["product_calls"],
            "spaceforms.euler_matrices": c["euler_matrices"],
            "spaceforms.gysin_degrees": c["gysin_degrees"],
            "bott.index_calls": c["index_calls"],
            "bott.candidates": c["candidates"],
            "bott.survivor_ratio": c["survivors"] / c["candidates"] if c["candidates"] else 0.0,
            "bott.transcript_entries": c["transcript_entries"],
            "serialize.bytes_out": c["bytes_out"],
            "dsl.docs": c["docs"],
            "dsl.bytes_in": c["bytes_in"],
            "cli.commands": c["commands"],
        })
        return values

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in ENTRY_POINTS[layer]:
                owner, _, attr = name.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                original = vars(holder).get(attr) if holder is not None else None
                if original is None:
                    self.skipped.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(layer, original, hooks.get(f"{layer}.{name}"))
                self._rebind(original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                elif isinstance(value, type) and value.__module__ == mod_name:
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._patches.append((value, cattr, original))
                            setattr(value, cattr, wrapper)

    def _wrap(self, layer: str, original, hook):
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrap(layer, original.__func__, hook))
        fn = original
        if inspect.isgeneratorfunction(fn):
            # a generator runs in its consumer's frames: count, do not time
            return self._wrap_generator(fn, hook) if hook is not None else fn
        stack = self._stack
        tracer = self
        calls_key = f"{layer}.calls"
        inner_hook = hook if hook is not None and not getattr(hook, "outer_only", False) else None

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                if inner_hook is None:
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                tracer._run_hook(inner_hook, args, kwargs, result)
                return result
            frame = [layer, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                tracer.self_time[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                tracer.spans += 1
                tracer.counts[calls_key] += 1
            if hook is not None:
                tracer._run_hook(hook, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _wrap_generator(self, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer._run_hook(hook, args, kwargs, item)
                yield item

        return functools.wraps(fn)(wrapper)

    def _run_hook(self, hook, args, kwargs, result) -> None:
        start = perf_counter()
        try:
            hook(args, kwargs, result)
        except (AttributeError, TypeError, KeyError, IndexError, ValueError) as exc:
            # a refactor changed a signature or return type: keep tracing and say so
            self.hook_errors[f"{hook.__name__}: {type(exc).__name__}: {exc}"] += 1
        spent = perf_counter() - start
        self.hook_time += spent
        if self._stack:
            self._stack[-1][2] += spent

    # -- counters ----------------------------------------------------------------

    def _hooks(self) -> dict:
        """Hooks by entry point.  A hook marked outer_only runs only on calls
        that cross into the layer, the others on every call."""

        def outer_only(hook):
            hook.outer_only = True
            return hook

        def add_rank(value: int) -> None:
            self.counts["rank_sum"] += value

        def add_bits(vectors) -> None:
            if vectors is not None:
                self.counts["max_coeff_bits"] = max(self.counts["max_coeff_bits"], coeff_bits(vectors))

        @outer_only
        def rank(args, kwargs, result):
            add_rank(result)

        @outer_only
        def echelon(args, kwargs, result):
            add_rank(len(result[1]))

        @outer_only
        def nullspace(args, kwargs, result):
            ncols = _arg(args, kwargs, 1, "ncols")
            add_rank(ncols - len(result))
            add_bits(result)
            record = self._pending_record(_arg(args, kwargs, 0, "rows"))
            if record is not None:
                record[2], record[6] = ncols, ncols - len(result)
                record[7] = max(record[7], coeff_bits(result))

        @outer_only
        def space_basis(args, kwargs, result):
            add_rank(len(result))
            add_bits(result)
            record = self._pending_record(_arg(args, kwargs, 0, "rows"))
            if record is not None:
                record[7] = max(record[7], coeff_bits(result))

        @outer_only
        def one_vector(args, kwargs, result):
            add_bits(None if result is None else [result])

        def span_add(args, kwargs, result):
            self.counts["span_attempts"] += 1
            self.counts["span_accepted"] += bool(result)

        def differential_matrix(args, kwargs, rows):
            cols = len(rows[0]) if rows else 0
            nnz = sum(1 for row in rows for x in row if x)
            self.counts["matrix_cells"] += len(rows) * cols
            self.counts["matrix_nnz"] += nnz
            if self.record_degrees:
                record = [self.job, _arg(args, kwargs, 1, "degree"), None, len(rows), cols, nnz, None, 0]
                self.degree_records.append(record)
                self._pending[id(rows)] = (rows, record)

        def cochain_complex(args, kwargs, result):
            self.counts["degrees"] += _arg(args, kwargs, 1, "max_degree") + 1
            self._pending.clear()

        def ring_report(args, kwargs, report):
            # a verdict is a pass or a refutation by dimensions; a FAIL
            # because the coefficient search ran out is not one
            self.counts["ring_verdicts"] += bool(report.passed or report.first_mismatch is not None)

        def basis(args, kwargs, result):
            model, degree = args[0], _arg(args, kwargs, 1, "degree")
            key = (id(model), degree)
            if key not in self._bases:
                self._bases[key] = model  # keeps the id from being reused within the pass
                self.counts["basis_monomials"] += len(result)

        @outer_only
        def product(args, kwargs, result):
            self.counts["product_calls"] += 1

        def count(key, measure=None):
            def hook(args, kwargs, result):
                self.counts[key] += 1 if measure is None else measure(result)
            hook.__name__ = key
            return hook

        def certificate(args, kwargs, cert):
            self.counts["candidates"] += cert.parameters.get("candidates", 1)
            self.counts["survivors"] += len(cert.survivors)
            self.counts["transcript_entries"] += len(cert.transcript)

        def gysin(args, kwargs, report):
            top = report.checked_up_to if report.passed else report.first_failure
            self.counts["gysin_degrees"] += top + 1

        def parse(args, kwargs, result):
            source = _arg(args, kwargs, 0, "source")
            text = source if isinstance(source, str) else source.text
            self.counts["docs"] += 1
            self.counts["bytes_in"] += len(text.encode("utf-8"))

        return {
            "gca.linalg.rank": rank,
            "gca.linalg.echelon": echelon,
            "gca.linalg.nullspace": nullspace,
            "gca.linalg.row_space_basis": space_basis,
            "gca.linalg.column_space_basis": space_basis,
            "gca.linalg.solve": one_vector,
            "gca.linalg.IncrementalSpan.reduce": one_vector,
            "gca.linalg.IncrementalSpan.add": span_add,
            "gca.cohomology.differential_matrix": differential_matrix,
            "gca.cohomology.cochain_complex": cochain_complex,
            "gca.cohomology.ComplexData.class_coordinates": count("class_coordinates"),
            "gca.cohomology._class_candidates": count("ring_candidates"),
            "gca.cohomology.verify_ring_presentation": ring_report,
            "gca.algebra.DgaModel.basis": basis,
            "gca.algebra.apply_differential": count("differential_calls"),
            "gca.algebra.AlgebraElement.__mul__": product,
            "gca.algebra.AlgebraElement.__pow__": product,
            "gca.algebra.multiply": product,
            "spaceforms.euler_action_matrices": count("euler_matrices", len),
            "spaceforms.gysin_check": gysin,
            "bott.bott_index": count("index_calls"),
            "bott.certify_theorem4": certificate,
            "bott.certify_theorem5": certificate,
            "serialize.dumps": count("bytes_out", lambda text: len(text.encode("utf-8"))),
            "dsl.parse": parse,
            "cli.main": count("commands"),
        }

    def _pending_record(self, rows):
        pending = self._pending.get(id(rows))
        return None if pending is None else pending[1]
