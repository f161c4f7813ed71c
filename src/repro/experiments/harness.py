"""Shared infrastructure for the evaluation experiments.

The individual experiment modules all need the same ingredients: the ACS-like
dataset, the fitted (DP) generative model, synthetic datasets for several ω
settings, and a marginals dataset.  :class:`ExperimentContext` builds those
lazily and caches them so a benchmark session that regenerates several tables
does not refit the model for each one.

Results are returned as :class:`ExperimentResult` tables that render to plain
text; the benchmarks print them so the paper's rows/series can be read off the
benchmark output directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.config import GenerationConfig
from repro.core.engine import SynthesisEngine
from repro.core.mechanism import SynthesisMechanism
from repro.core.run_store import RunStore
from repro.core.stream import STREAM_VERSION
from repro.datasets.acs import load_acs
from repro.datasets.dataset import Dataset
from repro.datasets.splits import DataSplits, split_dataset
from repro.generative.bayesian_network import BayesianNetworkSynthesizer
from repro.generative.builder import GenerativeModelSpec, fit_bayesian_network, fit_marginal_model
from repro.generative.marginal import MarginalSynthesizer
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams

__all__ = ["ExperimentResult", "ExperimentContext", "OMEGA_VARIANTS"]


#: The synthetic-dataset variants reported throughout Section 6:
#: fixed ω ∈ {11, 10, 9} plus the two random-ω mixtures.
OMEGA_VARIANTS: dict[str, int | tuple[int, ...]] = {
    "omega=11": 11,
    "omega=10": 10,
    "omega=9": 9,
    "omega in [9-11]": (9, 10, 11),
    "omega in [5-11]": (5, 6, 7, 8, 9, 10, 11),
}


@dataclass
class ExperimentResult:
    """A named table of results (one row per configuration / attribute / ...)."""

    name: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values: object) -> None:
        """Append one row; the number of values must match the headers."""
        if len(values) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} values per row, got {len(values)}"
            )
        self.rows.append(list(values))

    def column(self, header: str) -> list[object]:
        """All values of one named column."""
        try:
            index = self.headers.index(header)
        except ValueError:
            raise KeyError(f"no column named {header!r}") from None
        return [row[index] for row in self.rows]

    def row_by_key(self, key: object) -> list[object]:
        """The first row whose first cell equals ``key``."""
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(f"no row with key {key!r}")

    def to_text(self) -> str:
        """Render the table as aligned plain text."""
        def _format(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.4f}"
            return str(value)

        cells = [[_format(value) for value in row] for row in self.rows]
        widths = [
            max(len(header), *(len(row[col]) for row in cells)) if cells else len(header)
            for col, header in enumerate(self.headers)
        ]
        lines = [f"== {self.name} =="]
        lines.append("  ".join(header.ljust(width) for header, width in zip(self.headers, widths)))
        lines.append("  ".join("-" * width for width in widths))
        for row in cells:
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


class ExperimentContext:
    """Lazily-built shared state for the evaluation experiments.

    Parameters
    ----------
    num_raw_records:
        Number of raw ACS-like records to sample (cleaning shrinks this a
        little).  The paper uses 3.1M; the default here keeps every benchmark
        comfortably laptop-sized while preserving all comparative trends.
    synthetic_records:
        Number of released synthetic records per ω variant.
    total_epsilon:
        Overall DP budget of the generative model (the paper's ε = 1).
    k, gamma, epsilon0:
        Plausible-deniability parameters (paper defaults: 50, 4, 1).
    seed:
        Master RNG seed; every derived computation is seeded from it.
    run_store:
        Optional :class:`~repro.core.run_store.RunStore`.  Fitted models and
        released synthetic datasets are stored as content-addressed artifacts
        keyed by the context's configuration and seed, so a second benchmark
        session — in this process or another — reuses them instead of
        refitting.
    dataset:
        An explicit input dataset to evaluate instead of the ACS-like sample
        (``num_raw_records`` is then ignored).  Used by the conformance
        scenario registry (:mod:`repro.testing.scenarios`) to drive the
        experiment harness over synthetic schema families; the dataset's
        content fingerprint becomes part of every artifact key so cached
        fits can never be confused with the ACS ones.
    """

    def __init__(
        self,
        num_raw_records: int = 400_000,
        synthetic_records: int = 3_000,
        total_epsilon: float = 1.0,
        k: int = 50,
        gamma: float = 4.0,
        epsilon0: float | None = 1.0,
        seed: int = 7,
        adaptive_table_cells: bool = True,
        run_store: "RunStore | None" = None,
        dataset: Dataset | None = None,
    ):
        self.num_raw_records = num_raw_records
        self.synthetic_records = synthetic_records
        self.total_epsilon = total_epsilon
        self.k = k
        self.gamma = gamma
        self.epsilon0 = epsilon0
        self.seed = seed
        self.adaptive_table_cells = adaptive_table_cells
        self.run_store = run_store
        self._dataset: Dataset | None = dataset
        self._dataset_provided = dataset is not None
        self._splits: DataSplits | None = None
        self._models: dict[str, BayesianNetworkSynthesizer] = {}
        self._marginal_model: MarginalSynthesizer | None = None
        self._synthetics: dict[str, Dataset] = {}
        self._marginals_dataset: Dataset | None = None
        self._accountant = PrivacyAccountant()

    # ------------------------------------------------------------------ #
    # Data
    # ------------------------------------------------------------------ #
    def rng(self, offset: int = 0) -> np.random.Generator:
        """A reproducible RNG stream derived from the master seed.

        Stream ``offset`` is the ``offset``-th spawned child of
        ``np.random.SeedSequence(self.seed)`` (constructed statelessly via
        its ``spawn_key``), so streams never collide across offsets *or*
        across adjacent master seeds — the additive ``seed + offset`` pattern
        this replaces made e.g. ``(seed=7, offset=1)`` and ``(seed=8,
        offset=0)`` the same stream.  Every stream (and therefore every
        derived dataset/model) differs from the additive scheme for a fixed
        seed; distributions are unchanged.
        """
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(offset,))
        )

    @property
    def dataset(self) -> Dataset:
        """The cleaned ACS-like dataset."""
        if self._dataset is None:
            self._dataset = load_acs(self.num_raw_records, seed=self.seed)
        return self._dataset

    @property
    def splits(self) -> DataSplits:
        """The DS / DT / DP / test splits."""
        if self._splits is None:
            self._splits = split_dataset(self.dataset, rng=self.rng(1))
        return self._splits

    @property
    def accountant(self) -> PrivacyAccountant:
        """Privacy ledger of the model fits performed by this context."""
        return self._accountant

    # ------------------------------------------------------------------ #
    # Models
    # ------------------------------------------------------------------ #
    def privacy_params(self, k: int | None = None, gamma: float | None = None) -> PlausibleDeniabilityParams:
        """The plausible-deniability parameters used by the context."""
        return PlausibleDeniabilityParams(
            k=k if k is not None else self.k,
            gamma=gamma if gamma is not None else self.gamma,
            epsilon0=self.epsilon0,
        )

    def generation_config(self) -> GenerationConfig:
        """A GenerationConfig mirroring the context's settings."""
        return GenerationConfig(
            privacy=self.privacy_params(),
            model=GenerativeModelSpec.with_total_epsilon(
                self.total_epsilon, num_attributes=len(self.dataset.schema), omega=9
            ),
        )

    def max_table_cells(self) -> int | None:
        """Scale-adaptive cap on conditional-table size (see DESIGN.md).

        The cap keeps the expected per-cell count comfortably above the
        Laplace noise scale of the DP parameter learning at the context's
        (smaller-than-paper) data scale; with ``adaptive_table_cells=False``
        the paper's unconstrained behaviour is used.
        """
        if not self.adaptive_table_cells:
            return None
        from repro.generative.builder import calibrate_parameter_epsilon

        epsilon_p = calibrate_parameter_epsilon(
            self.total_epsilon, len(self.dataset.schema)
        )
        return max(100, int(len(self.splits.parameters) * epsilon_p / 10))

    def model_spec(self, omega: int | Iterable[int]) -> GenerativeModelSpec:
        """A model spec for one ω variant with the context's total budget."""
        from repro.generative.structure import StructureLearningConfig

        return GenerativeModelSpec.with_total_epsilon(
            self.total_epsilon,
            num_attributes=len(self.dataset.schema),
            omega=omega,
            structure=StructureLearningConfig(max_table_cells=self.max_table_cells()),
        )

    def model(self, variant: str = "omega=9") -> BayesianNetworkSynthesizer:
        """The fitted DP generative model for one named ω variant."""
        if variant not in OMEGA_VARIANTS:
            raise KeyError(f"unknown omega variant {variant!r}")
        return self.model_for_omega(OMEGA_VARIANTS[variant], cache_key=variant)

    def _artifact_payload(self, omega: int | Iterable[int] | None = None) -> dict:
        """Everything a fitted artifact depends on, as a plain payload dict."""
        payload = {
            "num_raw_records": self.num_raw_records,
            "seed": self.seed,
            "total_epsilon": self.total_epsilon,
            "max_table_cells": self.max_table_cells(),
            # The rng() stream derivation is part of the fit's identity; bump
            # when the stream scheme changes so stale artifacts never match.
            "rng_scheme": "seedseq-spawn-v1",
        }
        if self._dataset_provided:
            from repro.core.run_store import dataset_fingerprint

            payload["dataset"] = dataset_fingerprint(self.dataset)
        if omega is not None:
            payload["omega"] = (
                [int(omega)]
                if isinstance(omega, (int, np.integer))
                else [int(value) for value in omega]
            )
        return payload

    def model_for_omega(
        self, omega: int | Iterable[int], cache_key: str | None = None
    ) -> BayesianNetworkSynthesizer:
        """The fitted DP generative model for an arbitrary ω setting.

        Cached in-process per ω variant and, with a run store attached,
        across processes: the fitted model and the privacy-ledger entries of
        its fit are stored under a content key derived from the context's
        configuration, so a second benchmark session loads instead of
        refitting.
        """
        key = cache_key if cache_key is not None else f"omega:{omega!r}"
        if key in self._models:
            return self._models[key]
        store_key = None
        if self.run_store is not None:
            store_key = RunStore.artifact_key(
                "context-model", self._artifact_payload(omega)
            )
            if self.run_store.has_artifact(store_key):
                artifact = self.run_store.load_artifact(store_key)
                self._accountant.entries.extend(artifact["accountant_entries"])
                self._models[key] = artifact["model"]
                return self._models[key]
        entries_before = len(self._accountant.entries)
        self._models[key] = fit_bayesian_network(
            self.splits.structure,
            self.splits.parameters,
            spec=self.model_spec(omega),
            accountant=self._accountant,
            rng=self.rng(2),
        )
        if store_key is not None:
            self.run_store.save_artifact(
                store_key,
                {
                    "model": self._models[key],
                    "accountant_entries": list(
                        self._accountant.entries[entries_before:]
                    ),
                },
            )
        return self._models[key]

    @property
    def marginal_model(self) -> MarginalSynthesizer:
        """The fitted DP marginals baseline."""
        if self._marginal_model is None:
            spec = self.model_spec(9)
            self._marginal_model = fit_marginal_model(
                self.splits.parameters,
                epsilon=spec.epsilon_parameters,
                rng=self.rng(3),
            )
        return self._marginal_model

    def mechanism(self, variant: str = "omega=9", k: int | None = None, gamma: float | None = None) -> SynthesisMechanism:
        """Mechanism 1 wired to the context's seed split and one ω variant."""
        return SynthesisMechanism(
            self.model(variant), self.splits.seeds, self.privacy_params(k, gamma)
        )

    # ------------------------------------------------------------------ #
    # Datasets for the utility experiments
    # ------------------------------------------------------------------ #
    def synthetic_dataset(self, variant: str = "omega=9") -> Dataset:
        """Released synthetic records for one ω variant.

        Released by an in-process :class:`~repro.core.engine.SynthesisEngine`
        on a base seed drawn from the variant's ``rng(10 + index)`` stream.
        Cached in-process and, with a run store attached, across processes
        (content-keyed by the generation configuration, the seed and the
        release scheme).
        """
        if variant in self._synthetics:
            return self._synthetics[variant]
        store_key = None
        if self.run_store is not None:
            payload = self._artifact_payload(OMEGA_VARIANTS[variant])
            payload.update(
                {
                    "variant": variant,
                    "synthetic_records": self.synthetic_records,
                    "k": self.k,
                    "gamma": self.gamma,
                    "epsilon0": self.epsilon0,
                    # How the rows were drawn: the attempt-stream layout, so
                    # datasets drawn under an older layout never match.
                    "release_scheme": f"engine-until-n-v{STREAM_VERSION}",
                }
            )
            store_key = RunStore.artifact_key("context-synthetic", payload)
            if self.run_store.has_artifact(store_key):
                self._synthetics[variant] = self.run_store.load_artifact(store_key)
                return self._synthetics[variant]
        base_seed = int(self.rng(10 + list(OMEGA_VARIANTS).index(variant)).integers(2**63))
        with SynthesisEngine(
            self.model(variant), self.splits.seeds, self.privacy_params()
        ) as engine:
            report = engine.generate(
                self.synthetic_records,
                base_seed=base_seed,
                max_attempts=20 * self.synthetic_records,
            )
        self._synthetics[variant] = report.released_dataset()
        if store_key is not None:
            self.run_store.save_artifact(store_key, self._synthetics[variant])
        return self._synthetics[variant]

    @property
    def marginals_dataset(self) -> Dataset:
        """Records generated by the marginals baseline (cached)."""
        if self._marginals_dataset is None:
            data = self.marginal_model.generate_many(self.synthetic_records, self.rng(20))
            self._marginals_dataset = Dataset(self.dataset.schema, data)
        return self._marginals_dataset

    def reals_dataset(self, count: int | None = None) -> Dataset:
        """A sample of real (seed-split) records of the same size as the synthetics."""
        count = count if count is not None else self.synthetic_records
        count = min(count, len(self.splits.seeds))
        return self.splits.seeds.sample(count, self.rng(21))

    def comparison_datasets(
        self, variants: Sequence[str] | None = None
    ) -> dict[str, Dataset]:
        """Reals, marginals and the requested synthetic variants, keyed by name."""
        selected = list(variants) if variants is not None else list(OMEGA_VARIANTS)
        datasets: dict[str, Dataset] = {
            "reals": self.reals_dataset(),
            "marginals": self.marginals_dataset,
        }
        for variant in selected:
            datasets[variant] = self.synthetic_dataset(variant)
        return datasets
