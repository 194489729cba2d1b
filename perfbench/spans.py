"""Layer spans recorded from outside the package.

Tracing rebinds every public function of each layer module, in every
package module that imported it, to a wrapper that opens a span.  Class
methods, the dunder methods a class defines in its own source, and
property getters are wrapped on the class.  A span is closed into
running totals per (layer, function): calls and self seconds, where self
time is the span's time minus the time of its child spans.  Keeping
totals instead of a list of spans keeps memory flat over millions of
calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "sacksforcing"
LAYERS = ("bitseq", "trees", "conditions", "degrees", "implicit", "cli")

# functions whose outermost spans are summed into one inclusive time
GROUPS = {
    "decide": {"implicitly_defined_by"},
    "enumerate": {"implicit_subsets", "imp_levels"},
    "parse": {"parse_formula"},
}
# calls whose arguments are remembered for the repeat-call ratio
REPEAT_KEYED = {"implicitly_defined_by", "implicit_subsets", "imp_levels"}


def _repeat_key(name, args):
    args = [a.universe if hasattr(a, "universe") else
            tuple(a) if isinstance(a, list) else a for a in args]
    return (name, *args)


class Tracer:
    def __init__(self):
        self.stats = {}          # (layer, name) -> [calls, self seconds]
        self.group_s = dict.fromkeys(GROUPS, 0.0)
        self.top_s = 0.0         # time inside spans that have no parent
        self.repeat_calls = 0        # arguments seen since the import
        self.pass_repeat_calls = 0   # ... earlier in the same pass
        self.keyed_calls = 0
        self._seen = set()
        self._package = None
        self._pass_calls = []    # (name, args), keyed once the pass ends
        self._stack = []
        self._undo = []

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap the layers for one pass."""
        package = sys.modules.get(PACKAGE)
        if package is not self._package:    # a fresh import caches nothing
            self._package = package
            self._seen.clear()
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrapped[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj, mod.__file__)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj])

    def _wrap_methods(self, layer, cls, filename):
        for attr, raw in list(vars(cls).items()):
            dunder = attr.startswith("__") and attr.endswith("__")
            if attr.startswith("_") and not dunder:
                continue
            kind = type(raw)
            fn = (raw.__func__ if kind in (classmethod, staticmethod) else
                  raw.fget if kind is property else raw)
            # dataclass-generated methods have no source file of their own
            if (not inspect.isfunction(fn)
                    or fn.__code__.co_filename != filename):
                continue
            wrapper = self._wrap(layer, f"{cls.__name__}.{attr}", fn)
            if kind in (classmethod, staticmethod):
                wrapper = kind(wrapper)
            elif kind is property:
                wrapper = raw.getter(wrapper)
            self._set(cls, attr, wrapper)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        """Unwrap the layers and count the pass's repeated calls."""
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        self._stack.clear()
        seen_in_pass = set()
        for name, args in self._pass_calls:
            key = _repeat_key(name, args)
            self.keyed_calls += 1
            self.repeat_calls += key in self._seen
            self.pass_repeat_calls += key in seen_in_pass
            self._seen.add(key)
            seen_in_pass.add(key)
        self._pass_calls.clear()

    # -- spans ------------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        stats = self.stats.setdefault((layer, name), [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        short = name.rsplit(".", 1)[-1]
        group = next((g for g, names in GROUPS.items() if short in names),
                     None)
        keyed = short in REPEAT_KEYED
        pass_calls = self._pass_calls
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if keyed:
                pass_calls.append((short, args))
            outer = group is not None and not any(
                frame[1] == group for frame in stack)
            frame = [0.0, group]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                else:
                    tracer.top_s += took
                if outer:
                    tracer.group_s[group] += took

        return span

    def reset_stack(self):
        """Drop spans left open by an item interrupted at its deadline."""
        self._stack.clear()

    # -- results ------------------------------------------------------------------

    def layer_totals(self):
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (layer, _), (calls, self_s) in self.stats.items():
            out[layer]["calls"] += calls
            out[layer]["self_s"] += self_s
        return out

    def repeat_ratios(self):
        """Shares of keyed calls whose arguments a traced call had
        earlier since the package was imported, and earlier in the same
        pass."""
        keyed = max(self.keyed_calls, 1)
        return self.repeat_calls / keyed, self.pass_repeat_calls / keyed

    def calls(self, layer, name):
        return self.stats.get((layer, name), [0])[0]
