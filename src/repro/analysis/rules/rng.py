"""RNG hygiene rules (family ``rng``).

Bit-identical parallel synthesis requires every stochastic code path to draw
from an explicitly threaded ``numpy`` Generator or attempt stream
(:mod:`repro.core.stream`): global module-level streams (``np.random.*``,
stdlib ``random``) are process-wide hidden state, and ``default_rng()`` or
``attempt_stream()`` with a constant (or no) seed silently pins — or worse,
unpins — a stream the caller believes they control.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    Rule,
    SourceModule,
    call_terminal_name,
    dotted_name,
    register,
)

#: numpy.random attributes that construct explicit generators (allowed).
_GENERATOR_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
    "RandomState",
}

#: stdlib ``random`` functions that touch the global Mersenne-Twister state.
_STDLIB_RANDOM_FUNCS = {
    "seed",
    "random",
    "randint",
    "randrange",
    "getrandbits",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
}

#: Generator methods that consume randomness from their receiver.
_STOCHASTIC_METHODS = {
    "laplace",
    "integers",
    "random",
    "choice",
    "shuffle",
    "permutation",
    "permuted",
    "normal",
    "standard_normal",
    "uniform",
    "standard_gamma",
    "gamma",
    "dirichlet",
    "multinomial",
    "binomial",
    "poisson",
    "exponential",
    "geometric",
    "beta",
    "bytes",
}

#: repro functions that consume randomness through an rng argument.
_STOCHASTIC_REPRO_FUNCS = {
    "laplace_noise",
    "laplace_mechanism",
    "sample_dirichlet_rows",
    "attempt_stream",
}

#: Calls whose first argument seeds a stream; a literal there pins it.
_SEEDED_STREAM_FUNCS = {"default_rng", "attempt_stream"}

#: Parameter names through which randomness legitimately flows in: a numpy
#: Generator or seed, or an attempt stream (``stream``) and the per-attempt
#: draws it hands out (``words``).
_RNG_PARAM_MARKERS = ("rng", "seed", "random_state", "generator", "stream", "words")


def _has_rng_marker(name: str) -> bool:
    return any(marker in name for marker in _RNG_PARAM_MARKERS)


@register
class RngModuleCallRule(Rule):
    """Forbid module-level random calls (``np.random.normal``, ``random.seed``)."""

    id = "rng-module-call"
    family = "rng"
    summary = (
        "module-level RNG call draws from hidden global state; thread an "
        "explicit np.random.Generator instead"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        imports_stdlib_random = any(
            isinstance(node, ast.Import)
            and any(alias.name == "random" for alias in node.names)
            for node in ast.walk(module.tree)
        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if (
                len(parts) == 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] not in _GENERATOR_CONSTRUCTORS
            ):
                yield self.finding(
                    module,
                    node,
                    f"call to {dotted}() uses numpy's global RNG state; draw "
                    "from an explicit np.random.Generator passed by the caller",
                )
            elif (
                imports_stdlib_random
                and len(parts) == 2
                and parts[0] == "random"
                and parts[1] in _STDLIB_RANDOM_FUNCS
            ):
                yield self.finding(
                    module,
                    node,
                    f"call to {dotted}() mutates the stdlib global RNG; use an "
                    "explicit np.random.Generator",
                )


def _constant_int(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, int)


def _hidden_constant_seed(arg: ast.AST) -> bool:
    """True for seed expressions that bottom out in a literal int on some path."""
    if _constant_int(arg):
        return True
    if isinstance(arg, ast.IfExp):
        return _hidden_constant_seed(arg.body) or _hidden_constant_seed(arg.orelse)
    if isinstance(arg, ast.BoolOp):
        return any(_hidden_constant_seed(value) for value in arg.values)
    return False


@register
class RngConstantSeedRule(Rule):
    """Forbid a constant or missing seed for ``default_rng``/``attempt_stream`` outside tests."""

    id = "rng-constant-seed"
    family = "rng"
    summary = (
        "default_rng()/attempt_stream() with a constant/no seed hides the "
        "stream from the caller; require an explicit rng or seed argument"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.is_test:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_terminal_name(node)
            if name not in _SEEDED_STREAM_FUNCS:
                continue
            if not node.args and not node.keywords:
                yield self.finding(
                    module,
                    node,
                    f"{name}() without a seed is nondeterministic; thread "
                    "the caller's rng or seed through",
                )
            elif node.args and _hidden_constant_seed(node.args[0]):
                yield self.finding(
                    module,
                    node,
                    f"{name}(<constant>) pins a hidden fixed stream; "
                    "require the caller to pass rng/seed explicitly",
                )


class _FunctionInfo:
    """Stochastic calls and visible randomness sources of one function."""

    def __init__(self, node: ast.FunctionDef | ast.AsyncFunctionDef):
        self.node = node
        self.stochastic_calls: list[tuple[ast.Call, str]] = []
        self.has_source = False

    @staticmethod
    def param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
        args = node.args
        every = args.posonlyargs + args.args + args.kwonlyargs
        names = [arg.arg for arg in every]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


@register
class RngMissingParamRule(Rule):
    """Functions that consume randomness must receive an rng/seed explicitly."""

    id = "rng-missing-param"
    family = "rng"
    summary = (
        "function draws randomness but exposes no rng/seed parameter, so "
        "callers cannot control (or reproduce) its stream"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.is_test:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            info = self._analyze(module, node)
            if not info.stochastic_calls or info.has_source:
                continue
            call, label = info.stochastic_calls[0]
            yield self.finding(
                module,
                call,
                f"function {node.name!r} consumes randomness ({label}) but "
                "takes no explicit rng/seed parameter and reads no seed "
                "attribute; thread the caller's generator through",
            )

    def _analyze(
        self, module: SourceModule, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> _FunctionInfo:
        info = _FunctionInfo(node)
        visible: set[str] = set(_FunctionInfo.param_names(node))
        # Closures may capture the enclosing function's rng legitimately.
        enclosing = module.enclosing_function(node)
        while enclosing is not None:
            visible.update(_FunctionInfo.param_names(enclosing))
            enclosing = module.enclosing_function(enclosing)
        if any(_has_rng_marker(name) for name in visible):
            info.has_source = True
        for child in ast.walk(node):
            if isinstance(child, ast.Attribute) and _has_rng_marker(child.attr):
                # e.g. self.random_state, self._rng, job.base_seed: the stream
                # is explicitly plumbed through visible state, not ambient.
                info.has_source = True
            if not isinstance(child, ast.Call):
                continue
            # Skip calls belonging to a nested function; they are analyzed
            # against that function's own (plus inherited) parameters.
            if module.enclosing_function(child) is not node:
                continue
            func = child.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in _STOCHASTIC_METHODS
            ):
                info.stochastic_calls.append(
                    (child, f"{func.value.id}.{func.attr}()")
                )
            elif call_terminal_name(child) in _STOCHASTIC_REPRO_FUNCS:
                info.stochastic_calls.append(
                    (child, f"{call_terminal_name(child)}()")
                )
        return info
