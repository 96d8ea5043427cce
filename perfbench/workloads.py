"""The four benchmark workloads: seeded inputs, requests, checks and renderings.

A workload runs in rounds.  Every round holds the same count of requests in
each class; the seed and the round index pick the inputs, so two runs with
one seed do identical work and runs on different seeds do comparable work.
Requests run one after another (a closed loop with a single client).

Checks run after each round, outside the timed intervals, and use a route
that the timed code does not take: parsed CLI text multiplied by the
benchmark's own polynomial product, the series oracle against a closed
form, enumeration against the interior alternating sum, the graph's
connectivity against k(G).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable


@dataclass
class Request:
    cls: str
    spec: str
    fn: Callable[[], object]
    data: dict = field(default_factory=dict)


@dataclass
class Sample:
    round: int
    cls: str
    spec: str
    latency: float
    output: object
    error: str | None
    data: dict


class Modules:
    """The superweyl modules of one import, looked up at call time."""

    def __init__(self, importer: Callable[[str], object]):
        for name in ("rootdata", "weyl", "numerator", "partitions", "unifac",
                     "atypical", "cli", "errors"):
            setattr(self, name, importer(f"superweyl.{name}"))


def run_calls(round_index: int, requests: list[Request], record, request_span) -> None:
    """Run requests back to back, recording a Sample for each."""
    for req in requests:
        t0 = perf_counter()
        try:
            with request_span(req.cls):
                out = req.fn()
        except Exception as exc:  # a failing request is counted, not fatal
            record(Sample(round_index, req.cls, req.spec, perf_counter() - t0,
                          None, f"{type(exc).__name__}: {exc}", req.data))
        else:
            record(Sample(round_index, req.cls, req.spec, perf_counter() - t0,
                          out, None, req.data))


def _weight_from_coeffs(mods: Modules, datum, coeffs, tau_mult=0):
    rd = mods.rootdata
    lam = rd.vscale(Fraction(tau_mult), datum.tau)
    for i, c in enumerate(coeffs, start=1):
        if c:
            lam = rd.vadd(lam, rd.vscale(Fraction(c), datum.fundamental_weight(i)))
    return lam


def _fmt(w) -> str:
    return "(" + ",".join(str(c) for c in w) + ")"


# -- polynomial text, parsed independently of the library -------------------

_FACTOR = re.compile(r"X\[(\w+)\](?:\^(\d+))?")


def parse_poly_text(text: str, positions: dict[str, int]) -> dict:
    """Canonical polynomial text -> {monomial: Fraction}, monomials as in Poly."""
    text = text.strip()
    if text == "0":
        return {}
    text = ("- " + text[1:]) if text.startswith("-") else ("+ " + text)
    terms: dict = {}
    for sign, body in re.findall(r"([+-]) (\S+)", text):
        coeff = Fraction(1)
        factors = body
        if not body.startswith("X"):
            head, _, factors = body.partition("*")
            coeff = Fraction(head)
        exps: dict[int, int] = {}
        for label, exp in _FACTOR.findall(factors):
            pos = positions[label]
            exps[pos] = exps.get(pos, 0) + int(exp or 1)
        mono = tuple(sorted(exps.items()))
        if mono in terms:
            raise ValueError(f"repeated monomial in {text!r}")
        terms[mono] = -coeff if sign == "-" else coeff
    return terms


def poly_product(polys: list[dict]) -> dict:
    """Exact product of {monomial: coefficient} dictionaries."""
    acc: dict = {(): Fraction(1)}
    for p in polys:
        out: dict = {}
        for m1, c1 in acc.items():
            for m2, c2 in p.items():
                exps = dict(m1)
                for v, e in m2:
                    exps[v] = exps.get(v, 0) + e
                m = tuple(sorted(exps.items()))
                out[m] = out.get(m, 0) + c1 * c2
        acc = {m: c for m, c in out.items() if c != 0}
    return acc


# -- workloads -----------------------------------------------------------------


class Workload:
    name = ""
    min_rounds = 1
    counts: dict[str, int] = {}

    def __init__(self, mods: Modules, seed: int):
        self.m = mods
        self.seed = seed

    @property
    def round_size(self) -> int:
        return sum(self.counts.values())

    def rng(self, *tags) -> random.Random:
        return random.Random("-".join(str(t) for t in (self.seed, self.name, *tags)))

    def requests(self, r: int) -> list[Request]:
        raise NotImplementedError

    def run_round(self, r: int, record, request_span) -> None:
        run_calls(r, self.requests(r), record, request_span)

    def check(self, samples: list[Sample]) -> list[str | None]:
        raise NotImplementedError

    def render(self, sample: Sample) -> str:
        raise NotImplementedError


_TYPICAL_RUNGS = {
    "sl(3,2)": ("sl", 3, 2),
    "sl(4,3)": ("sl", 4, 3),
    "osp(2,6)": ("osp", None, 3),
    "osp(2,8)": ("osp", None, 4),
    "B(0,3)": ("b0", None, 3),
    "B(0,4)": ("b0", None, 4),
    "G(3)": ("G3", None, None),
    "F(4)": ("F4", None, None),
}


class TypicalCold(Workload):
    name = "typical-cold"
    min_rounds = 2
    # Classes in cost order: the median falls in the middle of the F(4)
    # block and p75 in the middle of the B(0,4) block, both of which are
    # well apart in cost from their neighbours.
    counts = {"G(3)": 3, "B(0,3)": 3, "sl(3,2)": 2, "osp(2,6)": 1, "F(4)": 6,
              "B(0,4)": 6, "osp(2,8)": 2, "sl(4,3)": 1}

    def __init__(self, mods, seed):
        super().__init__(mods, seed)
        rd = mods.rootdata
        self.data = {
            rung: rd.build_datum(rd.AlgebraDescriptor(family=f, m=m, n=n))
            for rung, (f, m, n) in _TYPICAL_RUNGS.items()
        }
        self._check_data: dict = {}

    def _weight(self, rung: str, rng: random.Random):
        datum = self.data[rung]
        family, _, n = _TYPICAL_RUNGS[rung]
        if family == "b0":
            # dominant ambient delta coordinates a1 >= ... >= an >= 0
            coords = sorted((rng.randrange(5) for _ in range(n)), reverse=True)
            return self.m.rootdata.as_weight(coords)
        while True:
            coeffs = [rng.randrange(5) for _ in range(datum.even_simple_count)]
            lam = _weight_from_coeffs(self.m, datum, coeffs, rng.randrange(1, 4))
            if datum.is_typical(lam):
                return lam

    def requests(self, r):
        rng = self.rng("round", r)
        order = [c for c, k in self.counts.items() for _ in range(k)]
        rng.shuffle(order)
        out = []
        for rung in order:
            family, m, n = _TYPICAL_RUNGS[rung]
            lam = self._weight(rung, rng)
            expr = self.m.cli.format_weight_expr(self.data[rung], lam)
            argv = ["numerator", "--family", family]
            argv += ["--m", str(m)] if m is not None else []
            argv += ["--n", str(n)] if n is not None else []
            argv += ["--weight", expr, "--factor"]
            out.append(Request(rung, " ".join(argv), self._cli_call(argv),
                               {"rung": rung, "weight": lam}))
        return out

    def _cli_call(self, argv):
        cli = self.m.cli

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return call

    def _check_datum(self, rung):
        if rung not in self._check_data:
            family, m, n = _TYPICAL_RUNGS[rung]
            rd = self.m.rootdata
            self._check_data[rung] = rd.build_datum(rd.AlgebraDescriptor(family=family, m=m, n=n))
        return self._check_data[rung]

    def check_one(self, rung, weight, output) -> str | None:
        code, out, err = output
        if code != 0:
            return f"exit {code}: {err.strip()}"
        datum = self._check_datum(rung)
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        sig = self.m.numerator.x_signature(datum, weight)
        printed = "; ".join(", ".join(str(e) for e in comp) for comp in sig)
        if lines.get("signature") != printed:
            return f"signature line {lines.get('signature')!r}, expected {printed!r}"
        positions = {datum.x_label(i): i for i in range(len(datum.simple_roots))}
        factors = []
        for k in range(1, len(datum.components) + 1):
            if f"U{k}" not in lines:
                return f"missing factor U{k}"
            factors.append(parse_poly_text(lines[f"U{k}"], positions))
        if f"U{len(factors) + 1}" in lines:
            return "more factors than diagram components"
        for k, (comp, comp_sig, factor) in enumerate(zip(datum.components, sig, factors), 1):
            if factor.get(()) != 1:
                return f"factor U{k} has constant term {factor.get(())}"
            for pos, s in zip(comp, comp_sig):
                if factor.get(((pos, s),)) != -1:
                    return f"factor U{k} lacks -X_{pos}^{s}"
        expected = self.m.numerator.numerator(datum, weight).terms
        if poly_product(factors) != expected:
            return "factor product differs from numerator()"
        return None

    def check(self, samples):
        return [
            s.error or self.check_one(s.data["rung"], s.data["weight"], s.output)
            for s in samples
        ]

    def render(self, sample):
        return sample.output[1]


class SearchWarm(Workload):
    name = "search-warm"
    min_rounds = 1
    # (class, p, q, signature bound, tau multiplier).  The multiplier is
    # fixed, not seeded: the cost of a search differs 2-3x between
    # multipliers, which would make runs on different seeds incomparable.
    searches = (("sl(3,2)", 3, 2, 4, 1), ("sl(4,2)", 4, 2, 2, 3))
    counts = {"sl(3,2)": 3000, "sl(4,2)": 1053}
    sampled_per_search = 5

    def run_round(self, r, record, request_span):
        plan = list(self.searches)
        self.rng("round", r).shuffle(plan)
        for cls, p, q, bound, tau in plan:
            datum = self.m.rootdata.build_sl(p, q)  # fresh: caches start cold
            spec = f"sl({p},{q}) bound {bound} tau {tau}"
            data = {"pq": (p, q)}
            gen = self.m.unifac.iter_counterexamples(datum, bound, tau)
            while True:
                t0 = perf_counter()
                try:
                    with request_span(cls):
                        hit = next(gen)
                except StopIteration:
                    break
                except Exception as exc:  # a failing search is counted, not fatal
                    record(Sample(r, cls, spec, perf_counter() - t0, None,
                                  f"{type(exc).__name__}: {exc}", data))
                    break
                record(Sample(r, cls, spec, perf_counter() - t0, hit, None, data))

    def check(self, samples):
        cross = "CrossMatchedCounterexample"
        rd = self.m.rootdata
        errors: list[str | None] = []
        by_search: dict = {}
        for i, s in enumerate(samples):
            if s.error:
                errors.append(s.error)
                continue
            hit = s.output
            err = None
            if hit.report.module_level_conclusion.value != cross:
                err = f"conclusion {hit.report.module_level_conclusion.value}"
            elif sorted(hit.lhs) == sorted(hit.rhs):
                err = "weight multisets are equal"
            elif rd.vadd(*hit.lhs) != rd.vadd(*hit.rhs):
                err = "weight sums differ"
            errors.append(err)
            by_search.setdefault((s.round, s.spec), []).append(i)
        check_data: dict = {}
        for (r, spec), indices in by_search.items():
            picks = self.rng("sample", r, spec).sample(
                indices, min(self.sampled_per_search, len(indices)))
            for i in picks:
                if errors[i]:
                    continue
                s = samples[i]
                pq = s.data["pq"]
                if pq not in check_data:
                    check_data[pq] = rd.build_sl(*pq)
                datum = check_data[pq]
                num = self.m.numerator.numerator
                try:
                    lhs = poly_product([num(datum, w).terms for w in s.output.lhs])
                    rhs = poly_product([num(datum, w).terms for w in s.output.rhs])
                except self.m.errors.SuperweylError as exc:
                    errors[i] = f"numerator() raised {type(exc).__name__}: {exc}"
                    continue
                if lhs != rhs:
                    errors[i] = "numerator products differ"
        return errors

    def render(self, sample):
        hit = sample.output
        return (f"{hit.tau_multiplier}|" + ";".join(_fmt(w) for w in hit.lhs)
                + "|" + ";".join(_fmt(w) for w in hit.rhs))


def _movers(datum, gamma) -> int:
    """Diagram generators not orthogonal to the type gamma."""
    return sum(
        1 for g in datum.generators
        if g.pi_index is not None and datum.inner(g.vector, gamma.vector) != 0
    )


class _Atypical(Workload):
    """Shared input generation for the two atypical workloads."""

    keys: tuple[str, ...] = ()

    def __init__(self, mods, seed):
        super().__init__(mods, seed)
        rd = mods.rootdata
        special_builds = {
            "G(3)": rd.build_g3, "F(4)": rd.build_f4,
            "osp(2,6)": lambda: rd.build_osp2(3),
        }
        self.data = {}
        for key in self.keys:
            if key in special_builds:
                self.data[key] = special_builds[key]()
            else:
                p, q = (int(x) for x in key[3:-1].split(","))
                self.data[key] = rd.build_sl(p, q)

    def types(self, key: str, movers=None) -> list[int]:
        """Isotropic positive odd roots of a datum, optionally by mover count."""
        datum = self.data[key]
        return [
            i for i, g in enumerate(datum.positive_odd)
            if g.isotropic and (movers is None or _movers(datum, g) in movers)
        ]

    def context(self, key: str, rng: random.Random, idx: int, tries: int = 5000):
        """A singly atypical context of type ``idx`` from seeded fundamental
        coefficients in 0..2."""
        datum = self.data[key]
        at = self.m.atypical
        for _ in range(tries):
            coeffs = tuple(rng.randrange(3) for _ in range(datum.even_simple_count))
            try:
                lam = at.shift_to_type(datum, _weight_from_coeffs(self.m, datum, coeffs), idx)
                ctx = at.atypical_context(datum, lam)
            except self.m.errors.SuperweylError:
                continue
            return ctx, f"{key} type {idx} coeffs {coeffs} special False"
        raise RuntimeError(f"no atypical weight of type {idx} found on {key}")

    def first_context(self, key: str, idx: int, degree: int, special: bool):
        """The first weight of type ``idx`` and X^lambda degree ``degree``, with
        fundamental coefficients in 0..2 taken in (sum, lexicographic) order."""
        datum = self.data[key]
        at = self.m.atypical
        ranked = sorted(itertools.product(range(3), repeat=datum.even_simple_count),
                        key=lambda c: (sum(c), c))
        for coeffs in ranked:
            try:
                lam = at.shift_to_type(datum, _weight_from_coeffs(self.m, datum, coeffs), idx)
                ctx = at.atypical_context(datum, lam, special=special)
            except self.m.errors.SuperweylError:
                continue
            if sum(e for _, e in self.m.numerator.x_lambda(datum, lam)) == degree:
                return ctx, f"{key} type {idx} coeffs {coeffs} special {special}"
        return None


class AtypicalOracle(_Atypical):
    name = "atypical-oracle"
    min_rounds = 2
    # class -> (datum, X^lambda degree of each request, movers).  Oracle cost
    # varies several-fold between weights of one class, more than a round of
    # seeded draws averages out, so the inputs are a fixed list: request j
    # takes the j-th type of its class (cycling) and the first weight of that
    # type and degree.  The seed only orders the requests.  Each class
    # shares one degree, so its block is dense in cost: the median falls in
    # the block of light datums and p90 in the sl(4,2) block.
    plan = {
        "G(3)": ("G(3)", (4,) * 12, None),
        "sl(3,2)": ("sl(3,2)", (6,) * 6, None),
        "sl(4,1)": ("sl(4,1)", (6,) * 6, None),
        "osp(2,6)": ("osp(2,6)", (6,) * 6, None),
        "F(4)": ("F(4)", (6,) * 6, None),
        "sl(4,2)": ("sl(4,2)", (6,) * 14, None),
        "sl(4,3) interior": ("sl(4,3)", (7,), (4,)),
    }
    counts = {cls: len(spec[1]) for cls, spec in plan.items()}
    keys = tuple(dict.fromkeys(spec[0] for spec in plan.values()))

    def __init__(self, mods, seed):
        super().__init__(mods, seed)
        for datum in self.data.values():
            mods.weyl.pi0_group(datum)  # warm: the pi0 groups exist
        self._inputs: list | None = None

    def inputs(self) -> list:
        if self._inputs is None:
            self._inputs = []
            for cls, (key, degrees, movers) in self.plan.items():
                types = self.types(key, movers)
                for j, degree in enumerate(degrees):
                    # G(3) and F(4) alternate the special flag
                    special = key in ("G(3)", "F(4)") and j % 2 == 1
                    found = next(filter(None, (
                        self.first_context(key, types[(j + k) % len(types)], degree, special)
                        for k in range(len(types))
                    )))
                    self._inputs.append((cls, *found))
        return self._inputs

    def requests(self, r):
        out = [Request(cls, spec, self._call(ctx), {"ctx": ctx})
               for cls, ctx, spec in self.inputs()]
        self.rng("round", r).shuffle(out)
        return out

    def _call(self, ctx):
        at = self.m.atypical
        names = ctx.datum.z_label

        def call():
            oracle = at.coefficient_oracle(ctx)
            closed = at.closed_form_coefficient(ctx)
            return oracle, closed, oracle.value.to_text(names), closed.value.to_text(names)

        return call

    def check(self, samples):
        errors = []
        for s in samples:
            if s.error:
                errors.append(s.error)
            elif s.output[0].value != s.output[1].value:
                errors.append(f"oracle differs from the {s.output[1].tag} closed form")
            else:
                errors.append(None)
        return errors

    def render(self, sample):
        return f"oracle {sample.output[2]} | closed {sample.output[3]} {sample.output[1].tag}"


class AtypicalEnum(_Atypical):
    name = "atypical-enum"
    min_rounds = 1
    # Classes in cost order: the median falls in the middle of the sl(4,3)
    # edge-type block and p75 in the middle of the interior enumeration
    # block.  Enumeration cost depends on the type (corner types, with two
    # moving generators, cost half as much as edge types, with three), not
    # the weight, so types follow a fixed schedule and the seed picks the
    # weights.
    counts = {"partition counts": 6, "f1 sl(5,4)": 4, "sl(4,3) boundary corner": 6,
              "sl(4,3) boundary edge": 9, "sl(4,3) interior enumeration": 11,
              "f1 sl(6,4)": 2, "sl(5,3) boundary": 2}
    graphs = keys = ("sl(4,3)", "sl(5,3)", "sl(5,4)", "sl(6,4)")

    def __init__(self, mods, seed):
        super().__init__(mods, seed)
        self._oracle: dict[str, object] = {}  # spec -> oracle value, computed once

    def requests(self, r):
        rng = self.rng("round", r)
        at, parts = self.m.atypical, self.m.partitions
        out = []
        for _ in range(self.counts["partition counts"]):
            key = rng.choice(self.graphs)
            graph = parts.graph_of_datum(self.data[key])
            out.append(Request("partition counts", f"{key} induced subgraphs",
                               self._kcount_call(graph), {"graph": graph}))
        for cls, key in (("f1 sl(5,4)", "sl(5,4)"), ("f1 sl(6,4)", "sl(6,4)")):
            datum = self.data[key]
            m1, m2 = (len(c) for c in datum.components)
            for _ in range(self.counts[cls]):
                p, q = rng.randint(2, m1), rng.randint(2, m2)
                out.append(Request(cls, f"{key} f1 ({p},{q})",
                                   self._f1_call(datum, p, q), {}))
        # the first sl(5,3) corner type and the first edge type
        wide = [self.types("sl(5,3)", (2,))[0], self.types("sl(5,3)", (3,))[0]]
        for cls, key, schedule, call in (
            ("sl(4,3) boundary corner", "sl(4,3)", self.types("sl(4,3)", (2,)),
             self._closed_call),
            ("sl(4,3) boundary edge", "sl(4,3)", self.types("sl(4,3)", (3,)),
             self._closed_call),
            ("sl(4,3) interior enumeration", "sl(4,3)", self.types("sl(4,3)", (4,)),
             self._enum_call),
            ("sl(5,3) boundary", "sl(5,3)", wide, self._closed_call),
        ):
            for j in range(self.counts[cls]):
                ctx, spec = self.context(key, rng, schedule[j % len(schedule)])
                out.append(Request(cls, spec, call(ctx), {"ctx": ctx}))
        rng.shuffle(out)
        return out

    def _kcount_call(self, graph):
        count = self.m.partitions.k_partition_counts

        def call():
            return [
                (subset, count(graph.induced(subset)))
                for size in range(1, len(graph) + 1)
                for subset in itertools.combinations(graph.vertices, size)
            ]

        return call

    def _closed_call(self, ctx):
        at = self.m.atypical
        return lambda: at.closed_form_coefficient(ctx)

    def _enum_call(self, ctx):
        at = self.m.atypical
        return lambda: at.enumeration_coefficient(ctx)

    def _f1_call(self, datum, p, q):
        at = self.m.atypical
        return lambda: at.coefficient_f1(datum, p, q)

    def check(self, samples):
        at = self.m.atypical
        errors: list[str | None] = []
        boundary = []
        for i, s in enumerate(samples):
            err = s.error
            if err is None and s.cls == "partition counts":
                graph = s.data["graph"]
                for subset, report in s.output:
                    want = 1 if graph.induced(subset).is_connected() else 0
                    if report.k_value != want:
                        err = f"k = {report.k_value} on {subset}, expected {want}"
                        break
            elif err is None and s.cls.startswith("f1"):
                if s.output != 1:
                    err = f"f1 = {s.output}"
            elif err is None and s.cls == "sl(4,3) interior enumeration":
                closed = at.closed_form_coefficient(s.data["ctx"])
                if closed.tag != "A-sum" or closed.value != s.output.value:
                    err = f"enumeration differs from the {closed.tag} closed form"
            elif err is None and s.cls.startswith("sl(4,3) boundary"):
                boundary.append(i)
            errors.append(err)
        # the oracle costs about 1.5 s here, so it checks one seeded sample
        # per round, and a repeated input reuses the oracle value
        for i in self.rng("oracle-sample").sample(boundary, min(1, len(boundary))):
            s = samples[i]
            if s.spec not in self._oracle:
                self._oracle[s.spec] = at.coefficient_oracle(s.data["ctx"]).value
            if self._oracle[s.spec] != s.output.value:
                errors[i] = "boundary closed form differs from the oracle"
        return errors

    def render(self, sample):
        out = sample.output
        if sample.cls == "partition counts":
            return ";".join(f"{sub}:{list(rep.counts)}:{rep.k_value}" for sub, rep in out)
        if sample.cls.startswith("f1"):
            return str(out)
        return f"{out.tag} {out.value.to_text(sample.data['ctx'].datum.z_label)}"


WORKLOADS = {w.name: w for w in (TypicalCold, SearchWarm, AtypicalOracle, AtypicalEnum)}
