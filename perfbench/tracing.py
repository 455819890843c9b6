"""Outside-in tracing of coralg for the benchmark's traced run.

``Tracer.install()`` wraps every public function and every public method of
the public classes of each coralg module, and rebinds each wrapped function
in every coralg module namespace that imported it by name.  Each call
becomes a span (name, start, end, parent span, run id); spans are kept in
memory and written out by ``write_spans()``.  A span's self time is its
duration minus the time its child spans cover.  ``uninstall()`` restores
the originals, so untraced passes run the unmodified library.

Layers are the module names.  Not wrapped: the per-scalar ``Field``
arithmetic and ``Mat``'s record constructor (hundreds of thousands of tiny
calls); their time is their caller's self time.  ``_Echelon.add`` gets a
counting hook only (no span): each call is one row fed to elimination.
"""

import fnmatch
import functools
import gzip
import inspect
from array import array
from time import perf_counter

LAYERS = ("exactla", "ncalg", "fixtures", "coring", "entwine", "connect",
          "cyclic", "cherngalois", "workspace", "cli")
SKIP = {"exactla.Field", "exactla.Mat.__init__"}
WRAPPED_DUNDERS = {"__init__", "__matmul__", "__add__", "__sub__", "__neg__", "__eq__"}

ELIM = ["exactla.rref_solve", "exactla.kernel", "exactla.rank",
        "exactla.solve_right", "exactla.inverse", "exactla.subspace_ops",
        "exactla.SubspaceBasis.*", "exactla.QuotientSpace.*",
        "exactla.quotient_space", "exactla.identity_quotient"]

# group -> (span names counted as its calls, span names whose self time it sums)
GROUPS = {
    "exactla.matmul": (["exactla.Mat.__matmul__"], None),
    "exactla.elim": (ELIM, None),
    "ncalg.tensor_space": (["ncalg.tensor_space"],
                           ["ncalg.tensor_space", "ncalg.TensorSpace.__init__"]),
    "ncalg.hom_solve": (["ncalg.hom_solve"], None),
    "ncalg.leg_apply": (["ncalg.leg_apply"], None),
    "cyclic.operators": (["cyclic.CyclicComplex.operators"], None),
    "cyclic.total": (["cyclic.CyclicComplex.total"],
                     ["cyclic.CyclicComplex.total", "cyclic.TotalComplex.__init__"]),
    "cyclic.homology": (["cyclic.HomologySpace.__init__"],
                        ["cyclic.homology", "cyclic.HomologySpace.*"]),
    "cyclic.cyclic_complex": (["cyclic.cyclic_complex"], None),
    "coring.validate": (["coring.validate_*"], None),
    "entwine.validate": (["entwine.validate_*"], None),
    "entwine.extension": (["entwine.make_extension", "entwine.extension_from_grouplike",
                           "entwine.EntwinedExtension.*"], None),
    "entwine.canonical_maps": (["entwine.canonical_maps"], None),
    "connect.solve": (["connect.solve_strong_connection"], None),
    "connect.verify": (["connect.verify_strong_connection"], None),
    "connect.tflat": (["connect.tflatness_check"], None),
    "connect.integral": (["connect.total_integral"], None),
    "cherngalois.chg_components": (["cherngalois.chg_components"], None),
    "cherngalois.idempotent_e": (["cherngalois.idempotent_e"], None),
    "cherngalois.compare": (["cherngalois.compare_chg_ch"], None),
    "cherngalois.assemble": (["cherngalois.assemble_and_class",
                              "cherngalois.assemble_cycle"], None),
    "workspace.parse": (["workspace.parse_workspace"], None),
    "cli.main": (["cli.main"], None),
}

COUNTERS = ("exactla.matmul.out_nnz", "exactla.elim.rows_in",
            "ncalg.tensor_space.built", "ncalg.tensor_space.full_dim_sum",
            "cyclic.total.tot_dim_sum", "cyclic.cyclic_complex.built")

# counts that must repeat exactly when the same code runs the same inputs
WORK_COUNTS = ("exactla.matmul.calls", "exactla.matmul.out_nnz",
               "ncalg.tensor_space.full_dim_sum", "cyclic.total.tot_dim_sum")


def _hooks(lib):
    """Per-span count hooks, run inside the span after the call returns."""
    nnz = lib["exactla"].Mat.nnz

    def matmul(c, args, out):
        c["exactla.matmul.out_nnz"] += nnz(out)

    def tensor_space(c, args, out):
        c["ncalg.tensor_space.built"] += 1
        c["ncalg.tensor_space.full_dim_sum"] += args[0].full_dim

    def total(c, args, out):
        c["cyclic.total.tot_dim_sum"] += sum(args[0].tot_dim.values())

    def cyclic_complex(c, args, out):
        c["cyclic.cyclic_complex.built"] += 1

    return {"exactla.Mat.__matmul__": matmul,
            "ncalg.TensorSpace.__init__": tensor_space,
            "cyclic.TotalComplex.__init__": total,
            "cyclic.CyclicComplex.__init__": cyclic_complex}


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.names = []
        self._name_id = {}
        self._layer_of = []
        self._hooks = _hooks(lib)
        self._patches = []
        self._stack = []
        self.run_id = -1
        self.sp_name, self.sp_parent, self.sp_run = array("i"), array("i"), array("i")
        self.sp_start, self.sp_end = array("d"), array("d")

    # -- installing the wrappers -------------------------------------------

    def _intern(self, name, layer):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(LAYERS.index(layer))
        return nid

    def _wrap(self, fn, name, layer):
        tr, nid, lid = self, self._intern(name, layer), LAYERS.index(layer)
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tr._stack
            frame = [len(tr.sp_start), 0.0, lid]
            tr.sp_name.append(nid)
            tr.sp_parent.append(stack[-1][0] if stack else -1)
            tr.sp_run.append(tr.run_id)
            tr.sp_end.append(0.0)
            stack.append(frame)
            t0 = perf_counter()
            tr.sp_start.append(t0)
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(tr.counts, args, out)
            except BaseException:
                tr._close(frame, nid, t0, raised=True)
                raise
            tr._close(frame, nid, t0, raised=False)
            return out
        return traced

    def _close(self, frame, nid, t0, raised):
        t1 = perf_counter()
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        self.sp_end[frame[0]] = t1
        self.calls[nid] += 1
        self.self_s[nid] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
            boundary = stack[-1][2] != frame[2]
        else:
            self.covered += dur
            boundary = True
        if raised:
            self.raised[nid] += 1
            if boundary:  # the exception leaves this layer's public calls
                self.layer_raised[frame[2]] += 1

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, cls, layer):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in SKIP:
                continue
            if isinstance(val, (classmethod, staticmethod)):
                self._patch(cls, attr, type(val)(self._wrap(val.__func__, name, layer)))
            elif inspect.isfunction(val):
                self._patch(cls, attr, self._wrap(val, name, layer))

    def install(self):
        wrapped = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            mod = self.lib[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{obj.__qualname__}", layer))
                elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                      and f"{layer}.{attr}" not in SKIP):
                    self._wrap_class(obj, layer)
        for layer in LAYERS:
            mod = self.lib[layer]
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        echelon = self.lib["exactla"]._Echelon
        add = echelon.add

        @functools.wraps(add)
        def counted_add(*args, **kwargs):
            self.counts["exactla.elim.rows_in"] += 1
            return add(*args, **kwargs)
        self._patch(echelon, "add", counted_add)

    def uninstall(self):
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches = []

    # -- one traced pass -----------------------------------------------------

    def start_pass(self):
        """Zero the aggregates; call after install() (names are interned)."""
        n = len(self.names)
        self.calls, self.self_s, self.raised = [0] * n, [0.0] * n, [0] * n
        self.layer_raised = [0] * len(LAYERS)
        self.covered = 0.0
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _ids(self, patterns):
        return [i for i, name in enumerate(self.names)
                if any(fnmatch.fnmatchcase(name, p) for p in patterns)]

    def pass_metrics(self, wall):
        """Every per-layer number of the pass just run (wall: its wall time).

        Layer self times plus ``trace.unattributed_s`` add up to ``wall``."""
        m = {}
        for lid, layer in enumerate(LAYERS):
            ids = [i for i, l in enumerate(self._layer_of) if l == lid]
            m[f"{layer}.calls"] = sum(self.calls[i] for i in ids)
            m[f"{layer}.self_s"] = sum(self.self_s[i] for i in ids)
            m[f"{layer}.raised"] = self.layer_raised[lid]
        for group, (entry, members) in GROUPS.items():
            m[f"{group}.calls"] = sum(self.calls[i] for i in self._ids(entry))
            m[f"{group}.self_s"] = sum(self.self_s[i] for i in self._ids(members or entry))
        m.update(self.counts)
        for group in ("ncalg.tensor_space", "cyclic.cyclic_complex"):
            calls = m[f"{group}.calls"]
            m[f"{group}.hit_ratio"] = 1 - m[f"{group}.built"] / calls if calls else 0.0
        m["cli.tracebacks"] = sum(self.raised[i] for i in self._ids(["cli.main"]))
        m["trace.wall_s"] = wall
        m["trace.unattributed_s"] = wall - self.covered
        return m

    def write_spans(self, path, header):
        """All spans recorded so far, as gzipped CSV (times in seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for key, value in header.items():
                fh.write(f"# {key}: {value}\n")
            fh.write("span,parent,run,name,start,end\n")
            names, t0 = self.names, self.sp_start[0] if self.sp_start else 0.0
            for i in range(len(self.sp_start)):
                fh.write(f"{i},{self.sp_parent[i]},{self.sp_run[i]},"
                         f"{names[self.sp_name[i]]},{self.sp_start[i] - t0:.7f},"
                         f"{self.sp_end[i] - t0:.7f}\n")
