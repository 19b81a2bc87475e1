"""The single source of truth for the ``method=`` strings of the public API.

:func:`repro.core.api.mvn_probability` (and its batched sibling) accept a
small set of estimator names plus aliases.  To keep the docstring, the
``ValueError`` raised for unknown names, and ``docs/methods.md`` from
drifting apart, all three are generated from the :data:`METHOD_SPECS` tuple
defined here — edit the tuple, and every surface follows
(``tests/test_docs_examples.py`` enforces the sync).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.mvn.mc import mvn_mc
from repro.mvn.sov import mvn_sov, mvn_sov_vectorized

__all__ = [
    "MethodSpec",
    "METHOD_SPECS",
    "ACCEPTED_METHODS",
    "AUTO_METHOD",
    "BASELINE_ESTIMATORS",
    "PARALLEL_METHODS",
    "canonical_method",
    "check_factor_args",
    "unknown_method_message",
    "method_doc_lines",
    "methods_markdown",
]


@dataclass(frozen=True)
class MethodSpec:
    """One accepted ``method=`` value of the MVN probability API.

    Attributes
    ----------
    name : str
        Canonical method name (what :class:`~repro.mvn.result.MVNResult`
        reports and what the CLI offers).
    aliases : tuple of str
        Alternative spellings accepted by the API.
    kind : str
        ``"parallel"`` for the factor-based tile methods (these accept
        ``factor=`` / ``cache=`` and the batched fast path), ``"baseline"``
        for the single-node reference estimators.
    summary : str
        One-line description used in the docstring bullet list.
    tradeoff : str
        Accuracy/speed trade-off note for ``docs/methods.md``.
    estimator : callable, optional
        Baselines only: the one-box estimator, called as
        ``estimator(a, b, sigma, n_samples=, mean=, qmc=, rng=)``.  The
        parallel methods run the batched PMVN sweep instead.
    """

    name: str
    aliases: tuple[str, ...]
    kind: str
    summary: str
    tradeoff: str
    estimator: Callable | None = field(default=None, repr=False)


def _mc_estimator(a, b, sigma, *, n_samples, mean, qmc, rng):
    """Naive Monte Carlo draws pseudo-random samples: ``qmc`` does not apply."""
    return mvn_mc(a, b, sigma, n_samples=n_samples, mean=mean, rng=rng)


METHOD_SPECS: tuple[MethodSpec, ...] = (
    MethodSpec(
        name="dense",
        aliases=("pmvn", "pmvn-dense"),
        kind="parallel",
        summary=(
            "tile-parallel PMVN with a dense tiled Cholesky "
            "(the paper's reference parallel implementation)"
        ),
        tradeoff=(
            "Exact factorization, so accuracy is limited only by the QMC sample "
            "size; `O(n^3)` factorization cost and `O(n^2)` memory.  The default "
            "choice up to a few thousand dimensions."
        ),
    ),
    MethodSpec(
        name="tlr",
        aliases=("pmvn-tlr",),
        kind="parallel",
        summary="PMVN with the Tile Low-Rank Cholesky at ``accuracy``",
        tradeoff=(
            "Compresses off-diagonal tiles to rank `k`, cutting the factorization "
            "and GEMM cost to roughly `O(n^2 k)`; introduces a controlled bias of "
            "order `accuracy`.  The paper's large-scale configuration."
        ),
    ),
    MethodSpec(
        name="sov",
        aliases=("sov-vectorized", "genz"),
        kind="baseline",
        summary="vectorized single-node Genz SOV baseline",
        tradeoff=(
            "Same estimator as PMVN but one dense Cholesky and one NumPy sweep; "
            "no task parallelism, no tiling.  Fast and accurate for moderate `n`, "
            "the reference the parallel methods are validated against."
        ),
        estimator=mvn_sov_vectorized,
    ),
    MethodSpec(
        name="sov-seq",
        aliases=("sov_sequential",),
        kind="baseline",
        summary="scalar-loop Genz SOV (slow; testing only)",
        tradeoff=(
            "Literal transcription of the Genz recursion with Python loops; "
            "orders of magnitude slower, kept as an executable specification."
        ),
        estimator=mvn_sov,
    ),
    MethodSpec(
        name="mc",
        aliases=("montecarlo",),
        kind="baseline",
        summary="naive Monte Carlo baseline",
        tradeoff=(
            "Draws full samples and counts box hits: `O(N^{-1/2})` convergence "
            "and useless for small probabilities, but assumption-free — the "
            "sanity check of last resort."
        ),
        estimator=_mc_estimator,
    ),
    MethodSpec(
        name="auto",
        aliases=("planned",),
        kind="planned",
        summary=(
            "planner-chosen estimator: ``\"dense\"`` or ``\"tlr\"``, whichever "
            "a cost model in seconds over the dimension, sample size and "
            "off-diagonal rank prices cheaper (see ``docs/query.md``)"
        ),
        tradeoff=(
            "Delegates the `dense`-vs-`tlr` choice to `repro.query.QueryPlanner`: "
            "both factorizations and sweeps are priced from one fitted rate "
            "table and the cheaper one runs; a structure probe measures the "
            "off-diagonal rank only when it can change the answer.  The chosen "
            "plan is recorded under `result.details[\"plan\"]`; results are "
            "bit-identical to explicitly requesting the chosen method."
        ),
    ),
)

#: the planner pseudo-method: resolved to a concrete estimator once per model
#: by :class:`repro.query.QueryPlanner` (never executed by name)
AUTO_METHOD = "auto"

#: canonical method names, in documentation order
ACCEPTED_METHODS: tuple[str, ...] = tuple(spec.name for spec in METHOD_SPECS)

#: canonical names of the factor-based methods (accept ``factor=`` / ``cache=``)
PARALLEL_METHODS: tuple[str, ...] = tuple(
    spec.name for spec in METHOD_SPECS if spec.kind == "parallel"
)

#: the one-box estimator of every baseline method, by canonical name
BASELINE_ESTIMATORS: dict[str, Callable] = {
    spec.name: spec.estimator for spec in METHOD_SPECS if spec.kind == "baseline"
}

_ALIAS_TABLE: dict[str, str] = {}
for _spec in METHOD_SPECS:
    _ALIAS_TABLE[_spec.name] = _spec.name
    for _alias in _spec.aliases:
        _ALIAS_TABLE[_alias] = _spec.name


def unknown_method_message(method: str) -> str:
    """The error message for an unrecognized ``method=`` value."""
    expected = ", ".join(f"'{name}'" for name in ACCEPTED_METHODS)
    return f"unknown method {method!r}; expected one of {expected}"


def check_factor_args(method: str, factor=None, cache=None) -> None:
    """Reject ``factor=`` / ``cache=`` that ``method`` cannot use.

    Shared by the single-call, batched and session APIs so they accept the
    same inputs and raise the same message.  ``method`` must already be
    canonical.  A method that never factorizes takes neither argument; an
    explicit factor-based method takes only a factor of its own kind.
    ``"auto"`` always resolves to a factor-based method and follows a
    given factor, so it accepts both arguments.
    """
    if method == AUTO_METHOD:
        return
    if method not in PARALLEL_METHODS and (factor is not None or cache is not None):
        raise ValueError(f"method {method!r} does not use a Cholesky factor; drop factor=/cache=")
    # an object that is not a factor falls through to the caller's type check
    kind = getattr(factor, "kind", method)
    if kind != method:
        raise ValueError(
            f"method {method!r} cannot run on a pre-computed {kind!r} factor; "
            f"request method={kind!r} or 'auto', or drop factor="
        )


def canonical_method(method: str) -> str:
    """Resolve a ``method=`` string (or alias) to its canonical name.

    Raises
    ------
    ValueError
        If the name matches no spec (message from
        :func:`unknown_method_message`).
    """
    key = str(method).lower()
    try:
        return _ALIAS_TABLE[key]
    except KeyError:
        raise ValueError(unknown_method_message(method)) from None


def method_doc_lines(indent: str = "        ") -> str:
    """The bullet list of methods injected into the API docstrings."""
    lines = []
    for spec in METHOD_SPECS:
        lines.append(f'{indent}* ``"{spec.name}"`` — {spec.summary},')
    text = "\n".join(lines)
    return text.rstrip(",") + "."


def method_set_doc() -> str:
    """The ``{"dense", "tlr", ...}`` set notation for the docstring signature."""
    return "{" + ", ".join(f'"{name}"' for name in ACCEPTED_METHODS) + "}"


def methods_markdown() -> str:
    """Markdown documentation of every accepted method (for ``docs/methods.md``).

    ``docs/methods.md`` embeds this block verbatim;
    ``tests/test_docs_examples.py`` regenerates it and fails on drift.
    """
    out = []
    for spec in METHOD_SPECS:
        alias_text = ", ".join(f"`{alias}`" for alias in spec.aliases) or "—"
        out.append(f"### `{spec.name}`")
        out.append("")
        out.append(f"*Aliases:* {alias_text} · *Kind:* {spec.kind}")
        out.append("")
        summary = spec.summary.replace("``", "`")
        out.append(f"{summary[0].upper()}{summary[1:]}.")
        out.append("")
        out.append(spec.tradeoff)
        out.append("")
    return "\n".join(out).rstrip() + "\n"
