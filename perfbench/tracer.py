"""Per-layer trace of ncgkit, recorded from outside the package.

``Tracer.install`` replaces the public functions and methods of each layer
with timing wrappers and ``Tracer.uninstall`` puts every original back.  A
module function is replaced in every ncgkit namespace that bound it
(``from .x import y`` makes a second binding), a method on its class under
every alias (``__radd__ = __add__``), and a check on its registry entry.

Spans are aggregated per name, not stored per call: about five million QQi
operations run in one ``verify-identities`` request.  For each name the
tracer keeps the call count, ``busy`` (wall time of the outermost active
call, so recursion is not counted twice) and ``self`` (busy time minus the
time of wrapped calls made inside it).  The QQi and JetScalar operations call
nothing that is wrapped, so they are leaves: they count calls and busy time
and skip the span stack.
"""

from __future__ import annotations

import gc
import sys
from time import perf_counter
from typing import Dict, List, Tuple

# Arithmetic dunders counted as public entry points of a module's classes.
_OPERATORS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__pow__",
))


class Stat:
    __slots__ = ("calls", "busy", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.stack: List[float] = [0.0]  # time of wrapped calls inside each open span
        self.patches: List[Tuple[object, str, object]] = []
        self.poly_pairs = 0
        self.poly_max_terms = 0
        self.psi_terms = 0
        self.psi_busy_by_k: Dict[int, float] = {}
        self.qqi_top = [0]  # largest |numerator| or denominator of a QQi result

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- wrappers ------------------------------------------------------

    def span(self, name: str, fn, after=None):
        st = self.stat(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            st.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                stack[-1] += dt
                st.depth -= 1
                st.calls += 1
                st.self_time += dt - inner
                if not st.depth:
                    st.busy += dt
            if after is not None:
                after(args, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn):
        st = self.stat(name)
        stack = self.stack

        def wrapper(a, b):
            t0 = perf_counter()
            result = fn(a, b)
            dt = perf_counter() - t0
            stack[-1] += dt
            st.calls += 1
            st.busy += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def qqi_leaf(self, name: str, fn, qqi_type):
        st = self.stat(name)
        stack = self.stack
        top = self.qqi_top

        def wrapper(a, b):
            t0 = perf_counter()
            r = fn(a, b)
            dt = perf_counter() - t0
            stack[-1] += dt
            st.calls += 1
            st.busy += dt
            if r.__class__ is qqi_type:
                m = top[0]
                if r.d > m or r.a > m or -r.a > m or r.b > m or -r.b > m:
                    top[0] = max(r.d, abs(r.a), abs(r.b))
            return r

        wrapper.__wrapped__ = fn
        return wrapper

    def _poly_mul_after(self, poly_type):
        def after(args, result, dt):
            a, b = args
            n = len(a.coeffs)
            self.poly_pairs += n * len(b.coeffs) if isinstance(b, poly_type) else n
            if len(result.coeffs) > self.poly_max_terms:
                self.poly_max_terms = len(result.coeffs)
        return after

    def _psi_after(self, args, result, dt):
        k = len(args[1])
        self.psi_terms += result.term_count
        self.psi_busy_by_k[k] = self.psi_busy_by_k.get(k, 0.0) + dt

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(self, fn, make) -> None:
        """Replace ``fn`` in every ncgkit module namespace that binds it."""
        wrapper = make(fn)
        found = False
        for mod in _ncgkit_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{fn.__qualname__} is bound in no ncgkit module")

    def patch_method(self, cls, name: str, make) -> None:
        """Replace a method under every alias it has in its class."""
        raw = vars(cls)[name]
        if isinstance(raw, staticmethod):
            wrapper = staticmethod(make(raw.__func__))
        else:
            wrapper = make(raw)
        for attr, value in list(vars(cls).items()):
            if value is raw:
                self._set(cls, attr, wrapper)

    def patch_group(self, name: str, module) -> None:
        """One span over every public function and method of ``module``."""
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, type):
                for m_name, m_value in list(vars(value).items()):
                    public = not m_name.startswith("_") or m_name in _OPERATORS
                    if public and callable(m_value) and not isinstance(m_value, type):
                        self.patch_method(value, m_name, lambda f: self.span(name, f))
            elif callable(value):
                self.patch_function(value, lambda f: self.span(name, f))

    def uninstall(self) -> None:
        """Restore every original, newest patch first, and check the result."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    # -- the layers --------------------------------------------------------

    def install(self) -> None:
        from ncgkit import (algebroid, cech, characters, checks, cli, clifford,
                            cyclic, forms, geom, intlinalg, linalg, randgen,
                            spectral)
        from ncgkit.scalars import JetScalar, PolyScalar, QQi

        pm, pf = self.patch_method, self.patch_function
        pm(QQi, "__mul__", lambda f: self.qqi_leaf("scalars.QQi.mul", f, QQi))
        pm(QQi, "__add__", lambda f: self.qqi_leaf("scalars.QQi.add", f, QQi))
        pm(JetScalar, "__mul__", lambda f: self.leaf("scalars.JetScalar.mul", f))
        pm(JetScalar, "__add__", lambda f: self.leaf("scalars.JetScalar.add", f))
        pm(PolyScalar, "__mul__", lambda f: self.span(
            "scalars.PolyScalar.mul", f, self._poly_mul_after(PolyScalar)))
        pm(PolyScalar, "__add__", lambda f: self.span("scalars.PolyScalar.add", f))

        def spans(prefix, module, names):
            for n in names:
                pf(vars(module)[n], lambda f, n=n: self.span(f"{prefix}.{n}", f))

        spans("linalg", linalg, ("mat_mul",))
        for n in ("qq_rank", "qq_solve", "qq_inverse_matrix", "qq_kernel_basis"):
            pf(vars(linalg)[n], lambda f: self.span("linalg.eliminate", f))
        spans("intlinalg", intlinalg, ("smith_normal_form",))
        pm(forms.MatrixForm, "__mul__", lambda f: self.span("forms.MatrixForm.mul", f))
        pm(forms.MatrixForm, "__add__", lambda f: self.span("forms.MatrixForm.add", f))
        pm(forms.Connection, "nabla", lambda f: self.span("forms.nabla", f))
        spans("forms", forms, ("exterior_d", "twisted_d", "exp_beta_intertwiner"))
        spans("cyclic", cyclic, ("hochschild_b", "connes_B", "tensor_is_zero",
                                 "chern_cyclic", "pushforward_chain",
                                 "find_boundary_witness"))
        pf(characters.psi, lambda f: self.span("characters.psi", f, self._psi_after))
        spans("characters", characters, ("psi_recursive", "rho", "simplex_character"))
        spans("algebroid", algebroid, ("derivation_character", "ce_differential"))
        spans("cech", cech, ("phase_cocycle", "h3_class", "torsion_witness",
                             "normalize_determinant"))
        spans("spectral", spectral, ("morita_lift", "kernel_index_exact",
                                     "sobolev_chain_slack",
                                     "spectral_dimension_probe"))
        pm(spectral.FourierTorusTriple, "mckean_singer",
           lambda f: self.span("spectral.FourierTorusTriple.mckean_singer", f))
        for n in ("sphere2", "torus2"):
            pm(geom.Geometry, n, lambda f, n=n: self.span(f"geom.Geometry.{n}", f))
        spans("geom", geom, ("bott_projection", "local_index", "chern_number",
                             "pairing_index"))
        self.patch_group("clifford", clifford)
        self.patch_group("randgen", randgen)
        # wraps the randgen group wrapper, so it is found under the same bindings
        pf(randgen.random_exact_unitary,
           lambda f: self.span("randgen.random_exact_unitary", f))
        for spec in checks.CHECKS:
            self._set(spec, "runner", self.span(f"checks.{spec.check_id}", spec.runner))
        for n in ("render_report_text", "render_report_json"):
            pf(vars(cli)[n], lambda f: self.span("cli.render", f))
        pf(cli.main, lambda f: self.span("cli", f))

    # -- results -------------------------------------------------------

    def values(self) -> Dict[str, Tuple[float, int]]:
        """Every measured per-layer value as name -> (value, sample count)."""
        out: Dict[str, Tuple[float, int]] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = (st.calls, st.calls)
            out[f"{name}.busy_s"] = (st.busy, st.calls)
            out[f"{name}.self_s"] = (st.self_time, st.calls)
        poly_calls = self.stat("scalars.PolyScalar.mul").calls
        out["scalars.PolyScalar.mul.pairs"] = (self.poly_pairs, poly_calls)
        out["scalars.PolyScalar.mul.max_terms"] = (self.poly_max_terms, poly_calls)
        qqi_calls = (self.stat("scalars.QQi.mul").calls
                     + self.stat("scalars.QQi.add").calls)
        out["scalars.QQi.max_bits"] = (self.qqi_top[0].bit_length(), qqi_calls)
        psi_calls = self.stat("characters.psi").calls
        out["characters.psi.terms"] = (self.psi_terms, psi_calls)
        for k in range(1, 6):
            out[f"characters.psi.k{k}.busy_s"] = (self.psi_busy_by_k.get(k, 0.0), psi_calls)
        return out


def _ncgkit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ncgkit" or name.startswith("ncgkit."))]


# -- PolyScalar multiply corpus --------------------------------------------

CORPUS_PAIRS = 20000
CORPUS_REPEATS = 3


class _CorpusFull(Exception):
    pass


def capture_corpus(limit: int = CORPUS_PAIRS) -> list:
    """The first ``limit`` polynomial x polynomial products, with their
    operands, of ``check_induction_identity(seed=7)``."""
    from ncgkit.checks import check_induction_identity
    from ncgkit.scalars import PolyScalar

    corpus = []

    def capturing(mul):
        def capture(a, b):
            product = mul(a, b)
            if isinstance(b, PolyScalar):
                corpus.append((a, b, product))
                if len(corpus) >= limit:
                    raise _CorpusFull
            return product
        return capture

    patcher = Tracer()
    try:
        patcher.patch_method(PolyScalar, "__mul__", capturing)
        check_induction_identity(seed=7)
    except _CorpusFull:
        pass
    finally:
        patcher.uninstall()
    return corpus


def replay_corpus(corpus: list, repeats: int = CORPUS_REPEATS) -> Tuple[float, int]:
    """Fastest of ``repeats`` timed replays, and how many replayed products
    differ from the captured ones.

    The garbage collector is off while a replay is timed, as in ``timeit``.
    """
    best = float("inf")
    mismatches = 0
    for _ in range(repeats):
        gc.disable()
        try:
            t0 = perf_counter()
            products = [a * b for a, b, _ in corpus]
            best = min(best, perf_counter() - t0)
        finally:
            gc.enable()
        mismatches += sum(p != expected for p, (_, _, expected) in zip(products, corpus))
    return best, mismatches
