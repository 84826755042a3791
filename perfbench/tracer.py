"""Outside-in layer tracer.

Nothing inside ``src/`` is instrumented.  While a :class:`LayerTracer` is
installed it has replaced, from the outside:

* every public callable defined in a layer's modules -- module functions
  under every name any loaded ``repro.*`` module binds them to, and the
  public methods of the public classes those modules define;
* each codec's ``kernels`` attribute, with a wrapper that groups the
  kernels named in :data:`repro.kernels.api.KERNEL_NAMES`;
* a decoder's ``decode_picture``, which opens a ``codec.control`` span so
  the decode engine's self time excludes the codec's own control flow.

A span opens when a call enters a layer other than the innermost open one;
a call that re-enters the innermost layer is counted but opens no span.
A layer's self time is its spans' time minus the spans of other layers
nested in them.  ``codec.control`` is the root span of every operation,
so its self time is the operation's wall time minus every other layer's
self time: the residual.

:meth:`LayerTracer.uninstall` puts every replaced attribute back.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import pkgutil
import statistics
import sys
import time
import types
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layer name -> module patterns (``fnmatch`` over dotted module names).
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "me.search": ("repro.me.search", "repro.me.cost"),
    "me.subpel": ("repro.me.subpel",),
    "mc": ("repro.mc", "repro.mc.*"),
    "deblock": ("repro.codecs.h264.deblock",),
    "entropy": (
        "repro.codecs.huffman",
        "repro.codecs.h264.cavlc",
        "repro.codecs.*.coefficients",
        "repro.common.expgolomb",
    ),
    "bitstream": ("repro.common.bitstream",),
    "transform": ("repro.transform", "repro.transform.*"),
    "robustness.engine": ("repro.robustness.engine", "repro.robustness.guard"),
}

#: Kernel group -> name prefixes, matched against ``KERNEL_NAMES``.
KERNEL_GROUPS: Dict[str, Tuple[str, ...]] = {
    "kernels.cost": ("sad", "ssd", "satd"),
    "kernels.mc": ("get_block", "average", "mc_"),
    "kernels.block": ("sub", "add_clip"),
    "kernels.transform": ("fdct", "idct", "fwd_", "inv_", "hadamard", "quant", "dequant"),
    "kernels.deblock": ("deblock_",),
}

CONTROL = "codec.control"

#: Every layer the tracer reports, in report order; ``codec.control`` last.
LAYERS: Tuple[str, ...] = (
    "me.search", "me.subpel", "mc",
    "kernels.cost", "kernels.mc", "kernels.block", "kernels.transform", "kernels.deblock",
    "deblock", "entropy", "bitstream", "transform", "robustness.engine",
    CONTROL,
)

#: Packages whose modules are imported before layer callables are collected.
_PACKAGES = ("repro.codecs", "repro.common", "repro.me", "repro.mc",
             "repro.transform", "repro.robustness")


def kernel_group(kernel: str) -> Optional[str]:
    """The kernel layer ``kernel`` belongs to, or ``None`` if unclassified."""
    for group, prefixes in KERNEL_GROUPS.items():
        if kernel.startswith(prefixes):
            return group
    return None


def _import_layer_packages() -> None:
    for package_name in _PACKAGES:
        package = importlib.import_module(package_name)
        for info in pkgutil.walk_packages(package.__path__, package_name + "."):
            importlib.import_module(info.name)


def layer_of_module(module_name: str) -> Optional[str]:
    for layer, patterns in LAYER_MODULES.items():
        if any(fnmatch.fnmatchcase(module_name, pattern) for pattern in patterns):
            return layer
    return None


@dataclass(frozen=True)
class Target:
    """One callable the tracer wraps: where it lives and its layer."""

    layer: str
    qualname: str
    owner: object
    attr: str


def layer_targets() -> List[Target]:
    """Every public callable defined in a layer module, at its definition."""
    _import_layer_packages()
    targets: List[Target] = []
    for module_name in sorted(name for name in sys.modules if name.startswith("repro")):
        layer = layer_of_module(module_name)
        module = sys.modules[module_name]
        if layer is None or module is None:
            continue
        for name, value in sorted(vars(module).items()):
            if name.startswith("_") or getattr(value, "__module__", None) != module_name:
                continue
            if inspect.isfunction(value):
                targets.append(Target(layer, f"{module_name}.{name}", module, name))
            elif inspect.isclass(value):
                for attr, member in sorted(vars(value).items()):
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                        targets.append(Target(layer, f"{module_name}.{name}.{attr}", value, attr))
    return targets + _decoder_targets()


def _decoder_targets() -> List[Target]:
    """Each decoder's ``decode_picture``: a ``codec.control`` span inside the engine."""
    from repro.codecs.base import VideoDecoder

    targets, pending = [], list(VideoDecoder.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "decode_picture" in vars(cls):
            targets.append(Target(CONTROL, f"{cls.__module__}.{cls.__qualname__}.decode_picture",
                                  cls, "decode_picture"))
    return sorted(targets, key=lambda target: target.qualname)


class LayerTracer:
    """Per-layer self time and call counts, gathered from outside the program."""

    def __init__(self) -> None:
        self.layer_index = {layer: index for index, layer in enumerate(LAYERS)}
        size = len(LAYERS)
        self.self_s = [0.0] * size
        self.spans = [0] * size
        self.reentries = [0] * size
        #: calls each layer made into another layer: spans it opened, kernels it called
        self.outgoing = [0] * size
        self.callable_names: List[str] = []
        self.callable_calls: List[int] = []
        self.kernel_names: List[str] = []
        self.kernel_calls: List[int] = []
        self.kernel_s: List[float] = []
        #: per kernel, the calls made while ``me.subpel`` was the innermost layer
        self.subpel_kernel_calls: List[int] = []
        self._stack: List[list] = [[self.layer_index[CONTROL], 0.0]]
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._kernel_wrappers: Dict[int, object] = {}

    # -- recording ---------------------------------------------------

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """Wrap ``fn`` so its calls are spans of ``layer``."""
        index = len(self.callable_names)
        self.callable_names.append(name)
        self.callable_calls.append(0)
        layer_id = self.layer_index[layer]
        stack, calls, outgoing = self._stack, self.callable_calls, self.outgoing
        self_s, spans, reentries, clock = self.self_s, self.spans, self.reentries, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[index] += 1
            if stack[-1][0] == layer_id:
                reentries[layer_id] += 1
                return fn(*args, **kwargs)
            outgoing[stack[-1][0]] += 1
            frame = [layer_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer_id] += elapsed - frame[1]
                stack[-1][1] += elapsed
                spans[layer_id] += 1

        return traced

    def _wrap_kernel(self, fn: Callable, layer: str, kernel: str) -> Callable:
        index = len(self.kernel_names)
        self.kernel_names.append(kernel)
        self.kernel_calls.append(0)
        self.kernel_s.append(0.0)
        self.subpel_kernel_calls.append(0)
        layer_id, subpel_id = self.layer_index[layer], self.layer_index["me.subpel"]
        stack, calls, kernel_s, subpel_calls = (
            self._stack, self.kernel_calls, self.kernel_s, self.subpel_kernel_calls)
        self_s, spans, outgoing, clock = self.self_s, self.spans, self.outgoing, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            calls[index] += 1
            outgoing[parent[0]] += 1
            if parent[0] == subpel_id:
                subpel_calls[index] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                kernel_s[index] += elapsed
                self_s[layer_id] += elapsed
                parent[1] += elapsed
                spans[layer_id] += 1

        return traced

    def operation(self, fn: Callable, *args, **kwargs):
        """Run one operation as a ``codec.control`` root span; returns (result, wall)."""
        if len(self._stack) != 1:
            raise RuntimeError("operations do not nest")
        root = self._stack[0]
        root[1] = 0.0
        control = self.layer_index[CONTROL]
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[control] += elapsed - root[1]
            self.spans[control] += 1
        return result, elapsed

    # -- installation ------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def install(self, targets: Optional[Sequence[Target]] = None) -> None:
        """Replace every layer callable, under every name ``repro.*`` binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = layer_targets() if targets is None else targets
        by_identity: Dict[int, object] = {}
        for target in targets:
            member = vars(target.owner)[target.attr]
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self.wrap(member.__func__, target.layer, target.qualname))
            else:
                wrapped = self.wrap(member, target.layer, target.qualname)
                by_identity[id(member)] = (member, wrapped)
            self._patch(target.owner, target.attr, wrapped)
        for module_name, module in sorted(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for name, value in list(vars(module).items()):
                entry = by_identity.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, name, entry[1])

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def traced_kernels(self, backend) -> object:
        """A kernel backend whose kernels are spans of their kernel layer."""
        from repro.kernels.api import KERNEL_NAMES

        cached = self._kernel_wrappers.get(id(backend))
        if cached is not None:
            return cached
        wrapper = types.SimpleNamespace(name=f"traced({backend.name})")
        for kernel in KERNEL_NAMES:
            group = kernel_group(kernel)
            if group is None:
                print(f"perfbench: kernel {kernel!r} has no layer; left untraced",
                      file=sys.stderr)
                continue
            setattr(wrapper, kernel, self._wrap_kernel(getattr(backend, kernel), group, kernel))
        self._kernel_wrappers[id(backend)] = wrapper
        return wrapper

    def attach(self, codec) -> None:
        """Trace ``codec``'s kernels (its public ``kernels`` attribute)."""
        codec.kernels = self.traced_kernels(codec.kernels)

    # -- results -----------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        index = self.layer_index[layer]
        return self.spans[index] + self.reentries[index]


@dataclass(frozen=True)
class CallCost:
    """Seconds a wrapped call adds, split by the layer the tracer books it to."""

    callee: float   #: inside the callee's span: booked to the called layer
    caller: float   #: before and after the span: booked to the calling layer


def calibrate(calls: int = 100_000, repeats: int = 5) -> CallCost:
    """The tracer's own cost per call, measured on a no-op in the calling process.

    A no-op is called ``calls`` times through a layer wrapper of a private
    tracer.  The self time booked to its layer, less the same calls
    unwrapped, is the callee's part; the rest of the added time is the
    caller's.  Each is the median of ``repeats`` batches.
    """

    def noop():
        return None

    def loop(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    callee, caller = [], []
    for _ in range(repeats):
        tracer = LayerTracer()
        wrapped = tracer.wrap(noop, "mc", "calibration")
        base = loop(noop)
        added = loop(wrapped) - base
        inside = tracer.self_s[tracer.layer_index["mc"]] - base
        callee.append(inside)
        caller.append(added - inside)
    return CallCost(max(0.0, statistics.median(callee) / calls),
                    max(0.0, statistics.median(caller) / calls))
