"""One benchmark pass, run in a process of its own.

    python3 bench/passes.py --workload NAME --seed N --mode MODE [--check] [--spans FILE]

MODE is one of
  timed   set up, time the program calls untraced, report timings and
          peak RSS; with --check, also check every result independently;
  traced  the same calls once under tracing.Recorder, report layer metrics;
  probe   tracemalloc peak of one large orbit_mod call, per modular step;
  setup   set up and stop, to sample the set-up time alone.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here: imports onward

import argparse
import contextlib
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import orbitsieve  # noqa: E402
from orbitsieve import localglobal, numtheory, orbit, projective, ratmap, zsigmondy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# The bytes of `orbitsieve decide --format json --output FILE`.
JSON_KW = dict(sort_keys=True, indent=2)

# A pass spends about VERIFY_PASS_S verifying, evenly over its ops: each
# op's verification repeats until it has taken its share, or VERIFY_OP_S.
VERIFY_PASS_S = 1.0
VERIFY_OP_S = 0.0005

# The memory probe's orbit: z+1 from 1 mod 5^7 runs through all 78125
# residues before it repeats.
PROBE_MAP, PROBE_START, PROBE_MODULUS = "z+1", 1, (5, 7)

BUDGET_ERRORS = (numtheory.FactorizationBudgetError, ratmap.HeightBudgetError)

# Machine speed. On the 2-core VM where this benchmark was written, the same
# pure-Python work ran up to 1.5x slower for minutes at a time, in CPU time
# as much as in wall time (host cores shared with other machines). So a
# timer runs a fixed reference routine every SPEED_EVERY_S while a pass
# runs, and each op's times are divided by the speed factor around it: the
# median time of the routine within SPEED_WINDOW_S of the op, over
# REFERENCE_S, its median time on that VM. The routine never calls the
# package, so no change to the package can move the factor; the raw times
# are reported alongside.
REFERENCE_S = 1.7e-3
SPEED_EVERY_S = 0.1
SPEED_WINDOW_S = 0.5
SPEED_MIN_SAMPLES = 9


def _reference() -> int:
    x, seen = 3, {}
    for i in range(2000):  # small-integer arithmetic and dict traffic
        x = (x * x + i) % 1000003
        seen[x] = i
    a, b = 3**6000 + 1, 5**5000 + 3  # big-integer products and a gcd
    return math.gcd(a * a + 1, b * b + 7) + len(seen)


class SpeedMeter:
    """Times the reference routine on a SIGALRM timer, as a context manager.

    clock() is perf_counter minus the time spent in the routine, so work
    timed with it leaves the samples out.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock() at start, seconds)
        self.spent = 0.0

    def sample(self, *_) -> None:
        at = self.clock()
        t0 = time.perf_counter()
        _reference()
        t1 = time.perf_counter()
        self.samples.append((at, t1 - t0))
        self.spent += t1 - t0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_EVERY_S, SPEED_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < SPEED_MIN_SAMPLES:
            self.sample()

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """How many times slower than the reference VM the machine ran.

        Only samples within SPEED_WINDOW_S of [start, end] (clock() times)
        count, or all of them if there are none.
        """
        near = [s for t, s in self.samples if start - SPEED_WINDOW_S <= t <= end + SPEED_WINDOW_S]
        return statistics.median(near or [s for _, s in self.samples]) / REFERENCE_S


def _span(rec, name: str):
    return rec.span(name) if rec else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# program calls


def solve_decision(inp, rec=None) -> tuple[str, str]:
    """parse -> DecisionProblem.make -> decide -> certificate JSON text."""
    phi = ratmap.parse_map(inp.map_text)
    problem = localglobal.DecisionProblem.make(
        phi,
        projective.parse_point(inp.start),
        [projective.parse_point(t) for t in inp.targets],
        budgets=localglobal.Budgets(**inp.budgets),
    )
    cert = localglobal.decide(problem, jobs=1)
    with _span(rec, "localglobal.encode"):
        text = json.dumps(localglobal.certificate_to_dict(problem, cert), **JSON_KW) + "\n"
    return cert.kind, text


def verify_decision(text: str, rec=None) -> bool:
    """json.loads -> certificate_from_dict -> verify_certificate."""
    with _span(rec, "localglobal.decode"):
        problem, cert = localglobal.certificate_from_dict(json.loads(text))
    return localglobal.verify_certificate(problem, cert)


def solve_divisors(inp):
    """parse -> primitive_divisors; a budget error is an undecided outcome."""
    phi = ratmap.parse_map(inp.map_text)
    try:
        return phi, zsigmondy.primitive_divisors(phi, inp.beta, inp.gamma, inp.m_max)
    except BUDGET_ERRORS:
        return phi, None


def verify_divisors(inp, phi, run) -> bool:
    """Re-check each primitive prime through the package, as criterion 3 does."""
    for rep in run.reports:
        for q in rep.primitive:
            mod = projective.PrimePowerModulus(q, 1)
            if not projective.congruent_mod(ratmap.iterate_point(phi, inp.beta, rep.m), inp.gamma, mod):
                return False
            for j in range(1, rep.m):
                if projective.congruent_mod(ratmap.iterate_point(phi, inp.beta, j), inp.gamma, mod):
                    return False
    return True


def report_doc(run) -> list[dict]:
    return [
        {
            "m": r.m,
            "term_bits": r.term_bits,
            "valuations": [list(pe) for pe in r.term_valuations],
            "primitive": sorted(r.primitive),
        }
        for r in run.reports
    ]


def warm_up(workload: str) -> None:
    """Run each program call once on a fixed small input, to fill lazy state."""
    if workload == "divisors":
        inp = workloads.DivisorInput("z^2", (0, 0, 1), (1, 0, 0), 2, 1, 3)
        phi, run = solve_divisors(inp)
        verify_divisors(inp, phi, run)
    else:
        _, text = solve_decision(workloads.golden_problems()[1])
        verify_decision(text)


# ---------------------------------------------------------------------------
# a pass


class Pass:
    """The program calls of one pass over a workload's inputs."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.inputs = workloads.generate(workload, seed)
        self.op_s: list[float] = []
        self.outcomes: list[str] = []  # kind, "budget" or "error"
        self.outputs: list = []
        self.failures: dict[int, str] = {}  # op -> first reason it failed
        self.clock = time.perf_counter
        self.verify_s: list[float] = []
        # clock() at the start of each op, of its verification, and at the end
        self.windows: list[tuple[float, float, float]] = []

    @property
    def decisions(self) -> bool:
        return self.workload != "divisors"

    def _fail(self, i: int, reason: str) -> None:
        self.failures.setdefault(i, reason)

    def solve_op(self, i: int, rec=None) -> None:
        inp = self.inputs[i]
        if rec:
            rec.op = i
        a = self.clock()
        try:
            out = solve_decision(inp, rec) if self.decisions else solve_divisors(inp)
        except Exception as exc:  # an unexpected raise is a failed op
            self.op_s.append(self.clock() - a)
            self.outcomes.append("error")
            self.outputs.append(None)
            self._fail(i, f"raised {type(exc).__name__}: {exc}")
            return
        self.op_s.append(self.clock() - a)
        if self.decisions:
            self.outcomes.append(out[0])
            self.outputs.append(out[1])
        else:
            self.outcomes.append("decided" if out[1] else "budget")
            self.outputs.append(out)

    def claims(self, i: int) -> bool:
        """Whether op i produced an output to verify (budget outcomes do not)."""
        out = self.outputs[i]
        return out is not None and (self.decisions or out[1] is not None)

    def verify_op(self, i: int, rec=None) -> bool:
        """Re-check op i through the package; budget outcomes assert nothing."""
        out = self.outputs[i]
        if rec:
            rec.op = i
        if not self.claims(i):
            return True
        try:
            if self.decisions:
                # An exhausted certificate is decoded and answered "no", which
                # is what `orbitsieve verify` does with it; not a failure.
                return verify_decision(out, rec) or self.outcomes[i] == "exhausted"
            return verify_divisors(self.inputs[i], *out)
        except Exception as exc:  # a raise while verifying fails the op
            self._fail(i, f"verification raised {type(exc).__name__}: {exc}")
            return False

    def solve(self, rec=None) -> None:
        for i in range(len(self.inputs)):
            self.solve_op(i, rec)

    def verify_once(self, rec=None) -> list[bool]:
        return [self.verify_op(i, rec) for i in range(len(self.inputs))]

    def timed(self) -> None:
        """Solve every op and verify it right after, recording raw times.

        Verifying in step with solving spreads both measurements over the
        whole pass. An op whose verification is quicker than its share of
        VERIFY_PASS_S is verified repeatedly and counts with its median time.
        """
        share = max(VERIFY_OP_S, VERIFY_PASS_S / len(self.inputs))
        for i in range(len(self.inputs)):
            start = self.clock()
            self.solve_op(i)
            verify_start = self.clock()
            times: list[float] = []
            total = 0.0
            while total < share:
                t0 = self.clock()
                ok = self.verify_op(i)
                times.append(self.clock() - t0)
                total += times[-1]
                if not self.claims(i):
                    break
            self.verify_s.append(statistics.median(times))
            self.windows.append((start, verify_start, self.clock()))
            if not ok:
                self._fail(i, "rejected by the package's own verification")

    def texts(self) -> list[str]:
        """Each op's output as text: certificate JSON, or the divisor reports."""
        if self.decisions:
            return [t or "" for t in self.outputs]
        return [
            json.dumps(report_doc(o[1])) if o and o[1] else "" for o in self.outputs
        ]

    def check(self) -> None:
        """Independent checks of every output (checks.py)."""
        for i, (inp, text) in enumerate(zip(self.inputs, self.texts())):
            if not text:
                continue
            try:
                if self.decisions:
                    checks.check_decision(inp, json.loads(text))
                else:
                    checks.check_divisors(inp, json.loads(text))
            except checks.CheckError as exc:
                self._fail(i, f"independent check: {exc}")
            except (KeyError, TypeError, ValueError) as exc:  # a malformed output
                self._fail(i, f"independent check could not read it: {exc!r}")

    def decided(self) -> int:
        """Ops with a definitive answer: a witness, an empty set, or reports."""
        return sum(o in ("witness", "empty", "decided") for o in self.outcomes)

    def summary(self) -> dict:
        texts = self.texts()
        return {
            "attempted": len(self.inputs),
            "failures": sorted(self.failures.items()),
            "decided": self.decided(),
            "outcomes": {k: self.outcomes.count(k) for k in sorted(set(self.outcomes))},
            "digests": [hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts],
        }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(workload: str, seed: int) -> tuple[Pass, float]:
    """A pass ready to run, and the raw set-up time since T_START."""
    p = Pass(workload, seed)
    warm_up(workload)
    return p, time.perf_counter() - T_START


def timed(workload: str, seed: int, check: bool) -> dict:
    p, setup_s = set_up(workload, seed)
    with SpeedMeter() as meter:
        p.clock = meter.clock
        p.timed()
    peak = _peak_rss_mib()
    if check:
        p.check()
    op_s = [t / meter.factor(a, b) for t, (a, b, _) in zip(p.op_s, p.windows)]
    verify_s = [t / meter.factor(b, c) for t, (_, b, c) in zip(p.verify_s, p.windows)]
    f = meter.factor()
    return {
        "speed_factor": f,
        "raw_solve_s": sum(p.op_s),
        "setup_s": setup_s / f,
        "solve_s": sum(op_s),
        "verify_s": sum(verify_s),
        "op_ms": [t * 1e3 for t in op_s],
        "peak_rss_mib": peak,
        **p.summary(),
    }


def traced(workload: str, seed: int, spans_path: str | None) -> dict:
    p, _ = set_up(workload, seed)
    before = tracing.originals()
    rec = tracing.Recorder()
    rec.install()
    # Spans keep the reference samples that land in them, about 2% of the
    # time; the ops' own times leave them out.
    try:
        with SpeedMeter() as meter:
            p.clock = meter.clock
            p.solve(rec)
            oks = p.verify_once(rec)
    finally:
        rec.uninstall()
    restored = all(now[2] is then[2] for now, then in zip(tracing.originals(), before))
    if spans_path:
        rec.write(spans_path)
    f = meter.factor()
    return {
        "speed_factor": f,
        "solve_s": sum(p.op_s) / f,
        "restored": restored,
        "verified": all(oks),
        "layers": layer_metrics(p, rec, f),
        **p.summary(),
    }


def probe() -> dict:
    import tracemalloc

    phi = ratmap.parse_map(PROBE_MAP)
    mod = projective.PrimePowerModulus(*PROBE_MODULUS)
    tracemalloc.start()
    orb = orbit.orbit_mod(phi, PROBE_START, mod)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"bytes_per_step": peak / len(orb.sequence), "steps": len(orb.sequence)}


# ---------------------------------------------------------------------------
# layer metrics


def layer_metrics(p: Pass, rec, speed: float) -> dict[str, float]:
    """Per-layer metrics of a traced pass (bytes_per_step comes from probe()).

    Times are divided by the pass's speed factor and rates multiplied by it.
    """
    t = tracing.layer_times(rec.spans)

    def row(name):
        return t.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    c = rec.counters
    ev, om = row("ratmap.evaluate"), row("orbit.orbit_mod")
    out = {
        "projective.normalize_calls": row("projective.normalize")["calls"],
        "projective.normalize_s": row("projective.normalize")["s"],
        "projective.reduce_mod_calls": row("projective.reduce_mod")["calls"],
        "projective.reduce_mod_s": row("projective.reduce_mod")["s"],
        "ratmap.parse_s": row("ratmap.parse_map")["s"],
        "ratmap.evaluate_calls": ev["calls"],
        "ratmap.evaluate_s": ev["s"],
        "ratmap.evaluate_self_s": ev["self_s"],
        "ratmap.bits_out": c.get("ratmap.bits_out", 0),
        "ratmap.bits_per_s": c.get("ratmap.bits_out", 0) / ev["s"] if ev["s"] else 0.0,
        "ratmap.max_bits": c.get("ratmap.max_bits", 0),
        "ratmap.iterate_point_calls": row("ratmap.iterate_point")["calls"],
        "ratmap.iterate_point_s": row("ratmap.iterate_point")["s"],
        "orbit.orbit_mod_calls": om["calls"],
        "orbit.orbit_mod_steps": c.get("orbit.orbit_mod_steps", 0),
        "orbit.orbit_mod_s": om["s"],
        "orbit.steps_per_s": c.get("orbit.orbit_mod_steps", 0) / om["s"] if om["s"] else 0.0,
        "orbit.hit_set_calls": row("orbit.hit_set")["calls"],
        "orbit.hit_set_s": row("orbit.hit_set")["s"],
        "orbit.orbit_rational_calls": row("orbit.orbit_rational")["calls"],
        "orbit.orbit_rational_s": row("orbit.orbit_rational")["s"],
        "localglobal.decide_s": row("localglobal.decide")["s"],
        "localglobal.decide_self_s": row("localglobal.decide")["self_s"],
        "localglobal.intersect_calls": row("localglobal.intersect")["calls"],
        "localglobal.intersect_s": row("localglobal.intersect")["s"],
        "localglobal.verify_s": row("localglobal.verify")["s"],
        "localglobal.verify_self_s": row("localglobal.verify")["self_s"],
        "localglobal.encode_s": row("localglobal.encode")["s"],
        "localglobal.decode_s": row("localglobal.decode")["s"],
        "numtheory.factorize_calls": row("numtheory.factorize")["calls"],
        "numtheory.factorize_s": row("numtheory.factorize")["s"],
        "numtheory.factorize_bits": c.get("numtheory.factorize_bits", 0),
        "numtheory.factorize_budget_errors": c.get("numtheory.factorize_budget_errors", 0),
        "zsigmondy.primitive_divisors_s": row("zsigmondy.primitive_divisors")["s"],
        "zsigmondy.self_s": row("zsigmondy.primitive_divisors")["self_s"],
        "zsigmondy.evaluations": tracing.count_under(rec.spans, "ratmap.evaluate", "zsigmondy.primitive_divisors"),
        "decided_share": p.decided() / len(p.outcomes),
    }
    out.update(certificate_counts(p))
    for k, v in out.items():
        if k.endswith("_per_s"):
            out[k] = v * speed
        elif k.endswith("_s"):
            out[k] = v / speed
    return out


def certificate_counts(p: Pass) -> dict[str, float]:
    """Engine counters read back from the certificates of a pass."""
    docs = [json.loads(t) for t in p.texts() if t] if p.decisions else []
    eng = [d["engine"] for d in docs]
    examined = sum(len(e["examined"]) for e in eng)
    evidence = sum(len(d.get("moduli", [])) for d in docs)
    return {
        "localglobal.day_steps": sum(int(e["day_steps_done"]) for e in eng),
        "localglobal.night_stages": sum(int(e["night_stages_done"]) for e in eng),
        "localglobal.moduli_examined": examined,
        "localglobal.moduli_skipped": sum(len(e["skipped"]) for e in eng),
        "localglobal.useful_moduli_ratio": evidence / examined if examined else 0.0,
        "localglobal.cert_kib": sum(len(t) for t in p.texts()) / 1024 if p.decisions else 0.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("timed", "traced", "probe", "setup"), required=True)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--spans", help="write the traced pass's spans here (gzip JSON lines)")
    args = ap.parse_args(argv)
    if Path(orbitsieve.__file__).resolve().parent != SRC / "orbitsieve":
        print(f"imported orbitsieve from {orbitsieve.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.mode == "timed":
        out = timed(args.workload, args.seed, args.check)
    elif args.mode == "traced":
        out = traced(args.workload, args.seed, args.spans)
    elif args.mode == "probe":
        out = probe()
    else:
        _, setup_s = set_up(args.workload, args.seed)
        with SpeedMeter() as meter:
            pass
        out = {"setup_s": setup_s / meter.factor()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
