"""Show that every workload check and the digest reject a corrupted result.

Each case runs a few real requests, confirms the check accepts them, then
corrupts one result and confirms the check (or the digest) rejects it.
Run through ``python3 perfbench/run.py --selftest``; exits 1 on any miss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench import digest_error, digest_update, fresh_import  # noqa: E402
from workloads import WORKLOADS, Sample, SearchWarm, TypicalCold, run_calls  # noqa: E402

SEED = 1


def real_samples(requests) -> list[Sample]:
    samples: list[Sample] = []
    run_calls(0, requests, samples.append, lambda cls: nullcontext())
    return samples


def digest(workload, samples) -> str:
    return digest_update(hashlib.sha256(), workload, samples).hexdigest()


def swap_output(sample: Sample, output) -> Sample:
    return dataclasses.replace(sample, output=output)


def expect(label: str, workload, samples, corrupt_index: int, failures: list) -> None:
    errors = workload.check(samples)
    accepted = not any(e for i, e in enumerate(errors) if i != corrupt_index)
    rejected = bool(errors[corrupt_index])
    ok = accepted and rejected
    print(f"{'ok  ' if ok else 'MISS'} {workload.name}: {label}"
          f" -> {errors[corrupt_index] if rejected else 'accepted'}")
    if not ok:
        failures.append(label)


def typical_cases(mods, failures):
    wl = TypicalCold(mods, SEED)
    light = [r for r in wl.requests(0) if r.cls in ("sl(3,2)", "G(3)")][:2]
    good = real_samples(light)
    code, out, err = good[0].output
    first_neg = out.index(" - X[")
    corruptions = {
        "non-zero exit": (2, out, "error: corrupted"),
        "flipped sign of a -X_i^sig term": (code, out[:first_neg] + " + X[" + out[first_neg + 5:], err),
        "extra term in U1": (code, out.replace("\nU1: ", "\nU1: ", 1).replace(
            "\nU2:", " + X[a1]^99\nU2:", 1) if "\nU2:" in out else out.rstrip("\n") + " + X[a1]^99\n", err),
        "wrong signature line": (code, out.replace("signature: ", "signature: 9", 1), err),
    }
    for label, output in corruptions.items():
        expect(label, wl, [swap_output(good[0], output), *good[1:]], 0, failures)


def search_cases(mods, failures):
    wl = SearchWarm(mods, SEED)
    rd = mods.rootdata
    datum = rd.build_sl(3, 2)
    hits = list(mods.unifac.iter_counterexamples(datum, 2, 1))
    # a hit whose second rhs weight stays dominant and typical after
    # moving one fundamental weight to the first: only the products differ
    no = rd.Dominance.NO
    hit, omega = next(
        (h, datum.fundamental_weight(i))
        for h in hits for i in range(1, datum.even_simple_count + 1)
        if datum.is_dominant_integral(rd.vsub(h.rhs[1], datum.fundamental_weight(i))) is not no
        and datum.is_typical(rd.vsub(h.rhs[1], datum.fundamental_weight(i)))
        and datum.is_typical(rd.vadd(h.rhs[0], datum.fundamental_weight(i)))
        and sorted(h.lhs) != sorted((rd.vadd(h.rhs[0], datum.fundamental_weight(i)),
                                     rd.vsub(h.rhs[1], datum.fundamental_weight(i))))
    )
    base = [Sample(0, "sl(3,2)", f"selftest {i}", 0.0, h, None, {"pq": (3, 2)})
            for i, h in enumerate((hit, hits[0]))]
    report = dataclasses.replace(hit.report, module_level_conclusion=mods.unifac.Conclusion.UNIQUE_FACTORIZATION)
    shifted = (rd.vadd(hit.rhs[0], omega), rd.vsub(hit.rhs[1], omega))
    corruptions = {
        "conclusion is not cross-matched": dataclasses.replace(hit, report=report),
        "equal weight multisets": dataclasses.replace(hit, rhs=(hit.lhs[1], hit.lhs[0])),
        "weight sums differ": dataclasses.replace(hit, rhs=(hit.rhs[0], rd.vadd(hit.rhs[1], omega))),
        "numerator products differ": dataclasses.replace(hit, rhs=shifted),
    }
    for label, output in corruptions.items():
        samples = [swap_output(base[0], output)] + [dataclasses.replace(s, spec="other") for s in base[1:]]
        expect(label, wl, samples, 0, failures)


def oracle_cases(mods, failures):
    wl = WORKLOADS["atypical-oracle"](mods, SEED)
    good = real_samples([r for r in wl.requests(0) if r.cls == "G(3)"][:2])
    oracle, closed, o_text, c_text = good[0].output
    bumped = dataclasses.replace(closed, value=closed.value + closed.value.one(closed.value.trunc))
    expect("closed form off by one", wl,
           [swap_output(good[0], (oracle, bumped, o_text, c_text)), *good[1:]], 0, failures)


def enum_cases(mods, failures):
    wl = WORKLOADS["atypical-enum"](mods, SEED)
    reqs = wl.requests(0)
    pick = {}
    for r in reqs:
        pick.setdefault(r.cls, r)
    classes = ("partition counts", "f1 sl(5,4)", "sl(4,3) interior enumeration",
               "sl(4,3) boundary corner")
    good = real_samples([pick[c] for c in classes])
    kc, f1, interior, boundary = good
    subset, rep = kc.output[-1]
    flipped = dataclasses.replace(rep, k_value=1 - rep.k_value)
    one = interior.output.value.one(interior.output.value.trunc)
    cases = {
        "k(G) flipped on one subgraph": (0, swap_output(kc, kc.output[:-1] + [(subset, flipped)])),
        "f1 is not 1": (1, swap_output(f1, 2)),
        "enumeration off by one": (2, swap_output(interior, dataclasses.replace(
            interior.output, value=interior.output.value + one))),
        "boundary closed form off by one": (3, swap_output(boundary, dataclasses.replace(
            boundary.output, value=boundary.output.value + one))),
    }
    for label, (index, corrupted) in cases.items():
        samples = list(good)
        samples[index] = corrupted
        expect(label, wl, samples, index, failures)


def digest_case(mods, failures):
    wl = TypicalCold(mods, SEED)
    good = real_samples([r for r in wl.requests(0) if r.cls == "G(3)"][:2])
    code, out, err = good[0].output
    corrupted = [swap_output(good[0], (code, out.replace("1 - ", "1 + ", 1), err)), *good[1:]]
    ok = (digest(wl, good) != digest(wl, corrupted) and digest(wl, good) == digest(wl, list(good))
          and digest_error(wl, digest(wl, corrupted)) is not None)
    print(f"{'ok  ' if ok else 'MISS'} digest: one changed output byte changes the digest,"
          " and the run rejects a digest that differs from the stored one")
    if not ok:
        failures.append("digest")


def main() -> int:
    mods = fresh_import()
    failures: list[str] = []
    for case in (typical_cases, search_cases, oracle_cases, enum_cases, digest_case):
        case(mods, failures)
    print(f"selftest: {'FAILED ' + ', '.join(failures) if failures else 'all corruptions rejected'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
