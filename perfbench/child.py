"""Run one cubeshadow CLI command in this fresh interpreter and report on it.

    python3 child.py SRC_DIR TRACE -- CLI_ARGS...

Times `import cubeshadow.cli` apart from the call to `cli.main(CLI_ARGS)`,
captures what the command writes to stdout, and prints one JSON object.
With TRACE=1 it first rebinds the public functions listed in TARGETS, in
every cubeshadow namespace that holds them, to wrappers that record spans,
and adds the span aggregates to the report.  Nothing under SRC_DIR changes.
"""

import sys
import threading
import time

# (span name, module, attribute, work extractor).  Work is summed per span
# name: quadrature evaluations, Monte Carlo samples.
TARGETS = [
    ("specfun.hyp3f2_unit", "specfun", "hyp3f2_unit", None),
    ("specfun.elliptic_imag", "specfun", "elliptic_imag", None),
    ("quad.moment_integral_suite", "quad", "moment_integral_suite", None),
    ("quad.zeta4_quadrature", "quad", "zeta4_quadrature", None),
    ("quad.zeta3_quadrature", "quad", "zeta3_quadrature", None),
    ("quad.zeta5_reduction_check", "quad", "zeta5_reduction_check", None),
    ("quad.pi_over_128_suite", "quad", "pi_over_128_suite", None),
    ("quad.integrate_1d", "quad", "integrate_1d", lambda r: r.evaluations),
    ("moments.closed_form_table", "moments", "closed_form_table", None),
    ("moments.mc_estimate", "moments", "mc_estimate", lambda r: r.samples),
    ("moments.mc_octagon", "moments", "mc_octagon", lambda r: r.samples),
    ("moments.hull_cross_check", "moments", "hull_cross_check", None),
    ("moments.octagon_report", "moments", "octagon_report", None),
    ("geometry.sample_unit_vectors", "geometry", "sample_unit_vectors", None),
    ("geometry.sample_unit_vector", "geometry", "sample_unit_vector", None),
    ("geometry.build_frame", "geometry", "build_frame", None),
    ("geometry.project_vertices", "geometry", "project_vertices", None),
    ("functionals.shadow_volume", "functionals", "shadow_volume", None),
    ("functionals.shadow_area", "functionals", "shadow_area", None),
    ("functionals.shadow_mean_width", "functionals", "shadow_mean_width", None),
    ("functionals.octagon_perimeter", "functionals", "octagon_perimeter", None),
    ("hull.convex_hull_3d", "hull", "convex_hull_3d", None),
    ("hull.qhull", "hull", "ConvexHull", None),
    ("hull.mesh_measures", "hull", "mesh_measures", None),
    ("hull.convex_hull_2d", "hull", "convex_hull_2d", None),
]

ROOT_SPAN = "cli.main"
NAME, PARENT, START, END, WORK, CHILD_S = range(6)


class Tracer:
    """In-memory spans with one parent stack per thread.

    A span is [name, parent span, start, end, work, time of its children].
    Monte Carlo workers run in pool threads, so their spans are roots of
    their own thread rather than children of the caller's span.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads = []  # the spans of each thread

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self.threads.append(local.spans)
        return local.spans, local.stack

    def wrap(self, name, fn, work=None):
        def traced(*args, **kwargs):
            spans, stack = self._state()
            span = [name, stack[-1] if stack else None,
                    time.perf_counter(), None, 0, 0.0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[WORK] = work(result)
            return result
        return traced

    def install(self):
        """Rebind every TARGETS name wherever a cubeshadow module holds it.

        Returns the span names whose function the program no longer has.
        """
        namespaces = [m for k, m in sys.modules.items()
                      if k == "cubeshadow" or k.startswith("cubeshadow.")]
        missing = []
        for name, module, attr, work in TARGETS:
            original = getattr(sys.modules.get("cubeshadow." + module),
                               attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapped = self.wrap(name, original, work)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
        return missing

    def summary(self):
        """Aggregates per span name, and the check that no time counts twice.

        A span's self time is its duration less its children's durations, so
        the self times of one thread sum to its root spans' durations by
        construction; that sum is an identity, not a check.  Time is counted
        twice only when a span runs inside a span of the same name (a function
        wrapped twice, or a traced function that recurses), so that is what
        is checked.
        """
        problems = []
        for spans in self.threads:
            for span in spans:
                parent = span[PARENT]
                if parent is not None:
                    parent[CHILD_S] += span[END] - span[START]
                while parent is not None and parent[NAME] != span[NAME]:
                    parent = parent[PARENT]
                if parent is not None:
                    problems.append(f"{span[NAME]} runs inside itself")
        stats = {}
        for spans in self.threads:
            for span in spans:
                duration = span[END] - span[START]
                entry = stats.setdefault(span[NAME], [0, 0.0, 0.0, 0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - span[CHILD_S]
                entry[3] += span[WORK]
        return {"spans": stats, "problems": sorted(set(problems))}


def main():
    src, trace = sys.argv[1], sys.argv[2] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import cubeshadow.cli as cli
    import_s = time.perf_counter() - start

    import contextlib
    import io
    import json
    import resource

    report = {"import_s": import_s, "module": cli.__file__}
    entry = cli.main
    tracer = None
    if trace:
        tracer = Tracer()
        report["missing"] = tracer.install()
        entry = tracer.wrap(ROOT_SPAN, cli.main)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            rc = entry(cli_args)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    report["main_s"] = time.perf_counter() - start
    report["rc"] = rc
    report["out"] = out.getvalue()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report.update(tracer.summary())
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
