"""End-to-end and per-layer benchmark of the range-check compiler.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

Four workloads send traffic through the public ``repro`` API from this
one process (README.md in this directory says why each exists):

* ``cold``    one request on empty caches: compile, translate, one run;
* ``matrix``  one compile per op, frontend cache warm, every scheme;
* ``warm``    one run per op of a module compiled and translated in
              set-up;
* ``service`` a closed loop, one client connection, against a
              ``repro serve`` child process with two thread workers.

Every workload has a fixed design of ops (one *round*).  The seed
orders each round.  A run repeats whole rounds until ``--seconds``
have passed, so every run measures the same population of ops and
only the order differs between seeds.  The host's speed drifts by up
to 1.6x for tens of seconds, so latencies are taken from each op's
fastest repeats and, except on ``service``, scaled to a reference host
speed measured by a probe before every op (see ``measure``).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics, taken from a run in which every op executes twice,
once plain and once with the layer wrappers of ``tracing.py`` in
place.  Each op is checked for correctness; a failed op is counted in
``failed`` and makes ``correct`` false.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(HERE, "corpus")

#: fewest ops a run measures, so that ten or more lie beyond the p90
MIN_OPS = 100
#: a run stops starting rounds after this long, whatever ``--seconds``
HARD_LIMIT_S = 100.0
#: set-ups per run; ``setup_s`` is their median
SETUP_SAMPLES = 3
#: the host-speed probe: its size, how many recent probes set the local
#: speed, and its time on a reference host running at full speed
PROBE_ITERATIONS = 2000
PROBE_WINDOW = 15
PROBE_REF_S = 0.0002


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def _load_corpus():
    with open(os.path.join(CORPUS, "manifest.json")) as handle:
        manifest = json.load(handle)
    programs = {}
    for entry in manifest["programs"]:
        with open(os.path.join(CORPUS, entry["file"])) as handle:
            entry = dict(entry, source=handle.read())
        programs[entry["name"]] = entry
    return programs


class Record:
    """What one executed op produced, reduced to what the metrics need."""

    __slots__ = ("spec", "latency", "traced", "failure", "static_checks",
                 "counters", "code_bytes", "stats", "frontend_cached",
                 "backend_cached", "phases", "scale")

    def __init__(self, spec, latency, traced):
        self.spec = spec
        self.latency = latency
        self.traced = traced
        self.failure = None
        self.static_checks = 0
        #: execution counters snapshot (None when the op ran nothing)
        self.counters = None
        self.code_bytes = 0
        self.stats = {}
        self.frontend_cached = None
        self.backend_cached = None
        #: service only: client seconds and the worker's phases
        self.phases = None
        #: reference host speed over the local host speed at the op
        self.scale = 1.0


def _stats_dict(total):
    return {"inserted": total.inserted, "eliminated": total.eliminated,
            "proved": total.proved, "speculated": total.speculated,
            "lospre_cuts": total.lospre_cuts}


def _run_engine(program, inputs, engine, backend_cache=None):
    """One execution; returns ``(counters snapshot, output, trap)``."""
    from repro.errors import RangeTrap

    try:
        if engine == "interp":
            result = program.run(inputs)
        else:
            result = program.run_compiled(inputs, engine=engine,
                                          backend_cache=backend_cache)
    except RangeTrap as trap:
        return None, [], str(trap)
    return result.counters.snapshot(), list(result.output), None


def _check_output(record, reference, output, trap):
    if output != reference["output"] or trap != reference["trap"]:
        record.failure = ("output %r trap %r, reference %r trap %r"
                          % (output, trap, reference["output"],
                             reference["trap"]))


class Workload:
    """One traffic mix: set-up, a design of ops, and the op itself."""

    name = ""
    #: whether op latencies are converted to the reference host speed
    #: (see ``measure``); only for ops that are CPU work in this process
    scaled = True

    def __init__(self, corpus):
        self.corpus = corpus
        #: (program, options label) -> program compiled in this process,
        #: whose interpreter counters the back-end ops must match
        self._parity_programs = {}

    def setup(self):
        pass

    def design(self):
        raise NotImplementedError

    def op(self, spec):
        raise NotImplementedError

    def record(self, spec, result, record):
        raise NotImplementedError

    def verify(self, records):
        """Post-run parity: back-end counters against the interpreter's
        counters for the same compiled program."""
        from repro.benchsuite.runner import BENCH_PARITY_FIELDS

        expected = {}
        for record in records:
            if record.counters is None or record.failure:
                continue
            program_name, label, _engine = record.spec[:3]
            cell = (program_name, label)
            if cell not in expected:
                program = self._parity_programs[cell]
                inputs = self.corpus[program_name]["inputs"][self.inputs]
                expected[cell] = _run_engine(program, inputs, "interp")[0]
            reference = expected[cell]
            if reference is None:
                record.failure = "interpreter trapped in parity run"
                continue
            for field in BENCH_PARITY_FIELDS:
                if record.counters[field] != reference[field]:
                    record.failure = ("counter %s: %d, interpreter %d"
                                      % (field, record.counters[field],
                                         reference[field]))
                    break

    def close(self):
        pass


def _options(kind, scheme, inline=False, profile=None):
    from repro import CheckKind, OptimizerOptions, Scheme

    return OptimizerOptions(Scheme[scheme], CheckKind[kind],
                            inline=inline, profile=profile)


REGISTRY_CONFIGS = (("PRX", "LLS", False), ("INX", "ALL", False),
                    ("PRX", "SPEC", False), ("INX", "LLS", True))


class Cold(Workload):
    """Compile + translate + one run on test inputs, every cache empty."""

    name = "cold"
    inputs = "test"

    def setup(self):
        self.options = {}
        for kind, scheme, inline in REGISTRY_CONFIGS:
            options = _options(kind, scheme, inline)
            self.options[options.label()] = options

    def design(self):
        return [(name, label, engine)
                for name, entry in self.corpus.items()
                if entry["set"] == "registry"
                for label in self.options
                for engine in ("compiled", "specialized")]

    def op(self, spec):
        from repro import compile_source
        from repro.pipeline.cache import BackendCache, FrontendCache

        name, label, engine = spec
        entry = self.corpus[name]
        backend_cache = BackendCache()
        program = compile_source(entry["source"], self.options[label],
                                 cache=FrontendCache())
        return (program, backend_cache) + _run_engine(
            program, entry["inputs"]["test"], engine, backend_cache)

    def record(self, spec, result, record):
        program, backend_cache, counters, output, trap = result
        name, label, engine = spec
        self._parity_programs.setdefault((name, label), program)
        _check_output(record, self.corpus[name]["reference"]["test"],
                      output, trap)
        total = program.total_stats()
        record.static_checks = total.checks_after
        record.stats = _stats_dict(total)
        record.counters = counters
        record.code_bytes = len(
            backend_cache.compiled(program.module, engine=engine).source)
        record.frontend_cached = program.trace.frontend_was_cached()
        record.backend_cached = program.trace.backend_was_cached()


class Matrix(Workload):
    """Compile only, with a warm frontend cache, over every scheme.

    The design is a fraction of programs x schemes x (kind, inline):
    each program meets ``PER_PROGRAM`` consecutive schemes, continuing
    the scheme cycle where the previous program stopped, so every scheme
    meets nine or ten programs of all three sets; the (kind, inline)
    pair rotates along the program's schemes.  The full product would
    make a round too long to repeat within one run.  ``LO`` uses a
    profile trained in set-up on the program's test inputs.
    """

    name = "matrix"
    PAIRS = (("PRX", False), ("INX", True), ("INX", False), ("PRX", True))
    PER_PROGRAM = 4

    def setup(self):
        from repro import Scheme
        from repro.pipeline.cache import FrontendCache
        from repro.pipeline.profile import train_profile

        self.cache = FrontendCache()
        self.options = {}
        self.train_seconds = []
        schemes = [scheme.value for scheme in Scheme]
        for p_index, (name, entry) in enumerate(sorted(self.corpus.items())):
            for step in range(self.PER_PROGRAM):
                scheme = schemes[(p_index * self.PER_PROGRAM + step)
                                 % len(schemes)]
                kind, inline = self.PAIRS[(p_index + step)
                                          % len(self.PAIRS)]
                profile = None
                if scheme == "LO":
                    start = time.perf_counter()
                    profile = train_profile(entry["source"],
                                            _options(kind, scheme, inline),
                                            entry["inputs"]["test"],
                                            cache=self.cache)
                    self.train_seconds.append(time.perf_counter() - start)
                options = _options(kind, scheme, inline, profile)
                self.options[(name, options.label())] = options
        for name, entry in self.corpus.items():
            for inline in (False, True):
                self.cache.frontend(entry["source"], inline=inline)
        #: (program, label) -> static checks of the first compile
        self._first = {}

    def design(self):
        return sorted(self.options)

    def op(self, spec):
        from repro import compile_source

        return compile_source(self.corpus[spec[0]]["source"],
                              self.options[spec], cache=self.cache)

    def record(self, spec, program, record):
        total = program.total_stats()
        record.static_checks = total.checks_after
        record.stats = _stats_dict(total)
        record.frontend_cached = program.trace.frontend_was_cached()
        # Counted, not failed: MCM walks a loop's block set, whose order
        # follows object addresses, so its result can vary between
        # compiles of one cell.  The output is still correct.
        first = self._first.setdefault(spec, total.checks_after)
        record.stats["nondeterministic"] = int(first != total.checks_after)


class Warm(Workload):
    """One run on large inputs of a module translated in set-up."""

    name = "warm"
    inputs = "large"
    CONFIGS = (("PRX", "LLS"), ("PRX", "SPEC"))
    ENGINES = ("compiled", "specialized")

    def setup(self):
        from repro import compile_source
        from repro.pipeline.cache import BackendCache

        self.backend_cache = BackendCache()
        self.programs = {}
        for name, entry in self.corpus.items():
            if entry["set"] != "registry":
                continue
            for kind, scheme in self.CONFIGS:
                options = _options(kind, scheme)
                program = compile_source(entry["source"], options)
                self.programs[(name, options.label())] = program
                for engine in self.ENGINES:
                    # translates, then runs once so first-call costs of
                    # the generated code are paid before timing
                    _run_engine(program, entry["inputs"]["large"], engine,
                                self.backend_cache)
        self._parity_programs = self.programs

    def design(self):
        return [cell + (engine,) for cell in sorted(self.programs)
                for engine in self.ENGINES]

    def op(self, spec):
        name, label, engine = spec
        return _run_engine(self.programs[(name, label)],
                           self.corpus[name]["inputs"]["large"], engine,
                           self.backend_cache)

    def record(self, spec, result, record):
        counters, output, trap = result
        name, label, engine = spec
        program = self.programs[(name, label)]
        _check_output(record, self.corpus[name]["reference"]["large"],
                      output, trap)
        record.counters = counters
        total = program.total_stats()
        record.static_checks = total.checks_after
        record.stats = _stats_dict(total)
        record.code_bytes = len(self.backend_cache.compiled(
            program.module, engine=engine).source)


class Service(Workload):
    """Cached ``run`` requests to a ``repro serve`` child process."""

    name = "service"
    inputs = "test"
    # a request's time is mostly the network stack's fixed ~40 ms wait,
    # which does not follow the host's CPU speed
    scaled = False
    ENGINES = ("interp", "compiled", "specialized")
    LABEL = "PRX-LLS"

    def setup(self):
        from repro.service.client import ServiceClient

        self.server = _Server()
        self.client = ServiceClient(self.server.url, timeout=60.0)
        if not self.client.wait_ready(attempts=100, delay=0.05):
            raise RuntimeError("service did not answer /healthz")
        for spec in self.design():  # fills the worker caches
            status, _ = self.client.post("/compile", self._payload(spec))
            if status != 200:
                raise RuntimeError("warm-up request answered %d" % status)

    def _payload(self, spec):
        name, _label, engine = spec
        return {"action": "run", "source": self.corpus[name]["source"],
                "scheme": "LLS", "kind": "PRX", "engine": engine,
                "inputs": self.corpus[name]["inputs"]["test"]}

    def design(self):
        return [(name, self.LABEL, engine)
                for name, entry in sorted(self.corpus.items())
                if entry["set"] == "registry"
                for engine in self.ENGINES]

    def op(self, spec):
        return self.client.post_json("/compile", self._payload(spec))

    def healthz_seconds(self):
        start = time.perf_counter()
        self.client.get("/healthz")
        return time.perf_counter() - start

    def record(self, spec, result, record):
        status, body = result
        if status != 200:
            record.failure = "status %d" % status
            record.phases = {"status": status}
            return
        _check_output(record, self.corpus[spec[0]]["reference"]["test"],
                      body["output"], body["trap"])
        record.counters = body["counters"]
        record.static_checks = body["optimizer"]["checks_after"]
        record.stats = {"inserted": body["optimizer"]["inserted"],
                        "eliminated": body["optimizer"]["eliminated"]}
        record.frontend_cached = body["frontend_cached"]
        record.backend_cached = body["backend_cached"]
        record.phases = dict(body["phases"], status=status)

    def verify(self, records):
        from repro import compile_source

        for name, label, _engine in self.design():
            if (name, label) not in self._parity_programs:
                self._parity_programs[(name, label)] = compile_source(
                    self.corpus[name]["source"], _options("PRX", "LLS"))
        super().verify(records)

    def close(self):
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.stop(client)


class _Server:
    """A ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self):
        env = dict(os.environ)
        env.pop("REPRO_CACHE_DIR", None)
        env["PYTHONPATH"] = SRC
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--worker-mode", "thread"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.url = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr,
                                        daemon=True)
        self._reader.start()
        if not self._ready.wait(60.0) or self.url is None:
            self.stop(None)
            raise RuntimeError("repro serve did not report its address")

    def _read_stderr(self):
        for line in self.process.stderr:
            if self.url is None and " listening on " in line:
                self.url = line.split(" listening on ")[1].split()[0]
                self._ready.set()
        self._ready.set()

    def stop(self, client):
        if client is not None and self.process.poll() is None:
            try:
                client.shutdown()
            except OSError:
                pass
        try:
            self.process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._reader.join(timeout=5.0)


WORKLOADS = {cls.name: cls for cls in (Cold, Matrix, Warm, Service)}


# -- measuring ---------------------------------------------------------


def measure(workload, seed, seconds, tracer):
    """Run whole rounds until ``seconds`` pass.

    Returns the records, how many of them belong to the first round,
    the ``/healthz`` times (traced ``service`` runs) and the speed
    probes.  A probe runs before every op; the median of the last
    ``PROBE_WINDOW`` probes is the host's local speed, and the op's
    ``scale`` converts its latency to the reference host speed.
    """
    rng = random.Random(seed)
    design = workload.design()
    records = []
    healthz = []
    first_round = None
    rounds = 0
    probes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if first_round is not None and (
                elapsed >= HARD_LIMIT_S
                or (elapsed >= seconds and rounds * len(design) >= MIN_OPS)):
            break
        rounds += 1
        ops = list(design)
        rng.shuffle(ops)
        for index, spec in enumerate(ops):
            probes.append(_speed_probe())
            scale = 1.0
            if workload.scaled:
                scale = PROBE_REF_S / statistics.median(
                    probes[-PROBE_WINDOW:])
            # traced runs execute each op plain and traced, alternating
            # which comes first so neither side always runs warmer
            modes = (False,) if tracer is None else \
                ((False, True) if index % 2 == 0 else (True, False))
            for traced in modes:
                record = _execute(workload, spec, tracer, traced)
                record.scale = scale
                records.append(record)
            if tracer is not None and isinstance(workload, Service):
                healthz.append(workload.healthz_seconds())
        if first_round is None:
            first_round = len(records)
    return records, first_round, healthz, probes


def _speed_probe():
    """Seconds one fixed pure-Python kernel takes, none of it in repro."""
    start = time.perf_counter()
    table = {}
    for i in range(PROBE_ITERATIONS):
        table[i & 255] = table.get(i & 255, 0) + i
    return time.perf_counter() - start


def _execute(workload, spec, tracer, traced):
    op_start = time.perf_counter()
    try:
        if traced:
            result = tracer.traced_call(workload.op, spec)
        else:
            result = workload.op(spec)
    except Exception as error:  # a failed op is counted, not fatal
        record = Record(spec, time.perf_counter() - op_start, traced)
        record.failure = "%s: %s" % (type(error).__name__, error)
        return record
    record = Record(spec, time.perf_counter() - op_start, traced)
    workload.record(spec, result, record)
    return record


# -- metrics -----------------------------------------------------------


def _first_round_plain(records, first_round):
    return [r for r in records[:first_round] if not r.traced]


def best_latencies(records):
    """The fastest plain repeats of each design op, scaled, in ms.

    Each op keeps the fastest quarter of its repeats, and at least the
    ``k`` fastest, with ``k`` the fewest that leave ``MIN_OPS`` samples.
    The host's speed drifts for seconds at a time; an op's repeats lie
    in different rounds, so their fastest ones filter that out.
    """
    repeats = {}
    for record in records:
        if not record.traced:
            repeats.setdefault(record.spec, []).append(
                record.latency * record.scale)
    least = -(-MIN_OPS // len(repeats))
    return [seconds * 1e3 for latencies in repeats.values()
            for seconds in sorted(latencies)[:max(least,
                                                  len(latencies) // 4)]]


def end_to_end(records, first_round, setup_seconds):
    latencies = best_latencies(records)
    rusage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "setup_s": (_median(setup_seconds), "s"),
        "latency_ms.p50": (_median(latencies), "ms"),
        "latency_ms.p90": (_p90(latencies), "ms"),
        "ops_per_s": (len(latencies) / (sum(latencies) / 1e3), "1/s"),
        "peak_rss_mb": (rusage.ru_maxrss / 1024.0, "MiB"),
        "static_checks": (sum(r.static_checks for r in
                              _first_round_plain(records, first_round)),
                          "count"),
    }


def per_layer(workload, records, first_round, tracer, healthz):
    from tracing import LAYERS, ROOT as ROOT_SPAN

    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    n = max(1, len(traced))
    summary = tracer.summary()
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".ms"] = (
            summary.get(layer + ".self_s", 0.0) * 1e3 / n, "ms")
    roots = tracer.root_seconds()
    op_ms = sum(roots) * 1e3 / n
    metrics["trace.op.ms"] = (op_ms, "ms")
    metrics["trace.unattributed.ms"] = (
        summary.get(ROOT_SPAN + ".self_s", 0.0) * 1e3 / n, "ms")
    metrics["trace.coverage"] = (
        1.0 - metrics["trace.unattributed.ms"][0] / op_ms if op_ms else 0.0,
        "ratio")
    metrics["trace.overhead.ms"] = (
        _median([r.latency * 1e3 for r in traced])
        - _median([r.latency * 1e3 for r in plain]), "ms")
    metrics["trace.spans"] = (len(tracer.spans) / n, "count")

    functions = summary.get("checks.optimize.functions", 0)
    prover_calls = summary.get("symbolic.prover.calls", 0)
    metrics["ir.size"] = (summary.get("ir.size", 0) / n, "count")
    metrics["analysis.refresh.calls"] = (
        summary["analysis.refresh.calls"] / functions if functions else 0.0,
        "count")
    metrics["checks.cig.calls"] = (summary.get("checks.cig.calls", 0) / n,
                                   "count")
    metrics["symbolic.prover.calls"] = (prover_calls / n, "count")
    metrics["symbolic.prover.proved_ratio"] = (
        summary.get("symbolic.prover.proved", 0) / prover_calls
        if prover_calls else 0.0, "ratio")

    def ratio(values):
        values = [v for v in values if v is not None]
        return sum(1 for v in values if v) / len(values) if values else 0.0

    metrics["cache.frontend.hit_ratio"] = (
        ratio([r.frontend_cached for r in records]), "ratio")
    metrics["cache.backend.hit_ratio"] = (
        ratio([r.backend_cached for r in records]), "ratio")
    metrics["cache.backend.translations"] = (
        sum(1 for r in records if r.backend_cached is False)
        / len(records), "count")

    first = _first_round_plain(records, first_round)
    for field in ("inserted", "eliminated", "proved", "speculated",
                  "lospre_cuts"):
        metrics["checks." + field] = (
            sum(r.stats.get(field, 0) for r in first), "count")
    metrics["dyn_checks"] = (
        sum(r.counters["checks"] for r in first if r.counters), "count")
    metrics["gen_code_kb"] = (sum(r.code_bytes for r in first) / 1024.0,
                              "KiB")
    metrics["checks.nondeterministic"] = (
        sum(r.stats.get("nondeterministic", 0) for r in records), "count")
    executed = [r.counters for r in records if r.counters]
    for field in ("instructions", "checks"):
        metrics["execute." + field] = (
            sum(c[field] for c in executed) / len(executed)
            if executed else 0.0, "count")
    metrics["profile.train.ms"] = (
        _median(getattr(workload, "train_seconds", [])) * 1e3, "ms")

    phases = [r for r in records if r.phases is not None]
    ok = [r for r in phases if r.phases["status"] == 200]
    client = [r.latency * 1e3 for r in ok]
    metrics["service.client.ms"] = (_median(client), "ms")
    for phase in ("parse", "optimize", "execute"):
        metrics["service.worker.%s.ms" % phase] = (
            _median([r.phases[phase] * 1e3 for r in ok]), "ms")
    metrics["service.overhead.ms"] = (_median(
        [r.latency * 1e3 - 1e3 * sum(r.phases[p] for p in
                                     ("parse", "optimize", "execute"))
         for r in ok]), "ms")
    metrics["service.non200"] = (len(phases) - len(ok), "count")
    metrics["service.healthz.ms"] = (_median(healthz) * 1e3, "ms")
    metrics["fail_rate"] = (
        sum(1 for r in records if r.failure) / len(records), "ratio")
    return metrics


# -- entry point -------------------------------------------------------


def _setup_samples(args):
    """Set-up time of fresh processes (median taken with our own)."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError("set-up sample failed: %s"
                               % done.stderr.strip()[-500:])
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def _import_program():
    """Import every layer the benchmark touches; fails without src/."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ImportError("no repro package under %s" % SRC)
    sys.path.insert(0, SRC)
    import repro  # noqa: F401
    import repro.backend.specialized  # noqa: F401
    import repro.benchsuite.runner  # noqa: F401
    import repro.checks.inline  # noqa: F401
    import repro.checks.lospre  # noqa: F401
    import repro.checks.markstein  # noqa: F401
    import repro.checks.spec  # noqa: F401
    import repro.checks.valuerange  # noqa: F401
    import repro.pipeline.profile  # noqa: F401
    import repro.service.client  # noqa: F401
    try:  # generated specialized code imports it; pay that in set-up
        import numpy  # noqa: F401
    except ImportError:
        pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {\"setup_s\": ...}, exit")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("REPRO_CACHE_DIR", None)
    try:
        _import_program()
        corpus = _load_corpus()
    except (ImportError, OSError, ValueError) as error:
        print("perfbench: cannot load the program or corpus: %s" % error,
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](corpus)
    try:
        workload.setup()
        setup_seconds = [time.perf_counter() - START]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_seconds[0]}))
            return 0
        tracer = None
        if args.trace:
            sys.path.insert(0, HERE)
            from tracing import Tracer

            tracer = Tracer()
        records, first_round, healthz, probes = measure(
            workload, args.seed, args.seconds, tracer)
        workload.verify(records)
    finally:
        workload.close()
    if args.trace:
        metrics = per_layer(workload, records, first_round, tracer, healthz)
        metrics["host.probe_ms"] = (_median(probes) * 1e3, "ms")
    else:
        setup_seconds += _setup_samples(args)
        metrics = end_to_end(records, first_round, setup_seconds)
    failures = [r for r in records if r.failure]
    for record in failures[:10]:
        print("perfbench: failed %s: %s" % (record.spec, record.failure),
              file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
