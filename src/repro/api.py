"""The unified pipeline API: engines, the registry, and :class:`JobSpec`.

Three engines produce bitwise-identical calls (§IV-G): the dense SOAPsnp
baseline, the sparse GSNP algorithm on the CPU, and the same algorithm on
the simulated GPU.  This module names them with :class:`Engine`, describes
how to build each one in a registry of :class:`EngineSpec` entries, and
pins the interface they share as the :class:`Pipeline` protocol — so the
detector facade, the sharded executor (:mod:`repro.exec`) and the bench
harness all dispatch through one code path instead of per-engine branches.

:class:`JobSpec` is the single source of truth for every calling-job knob
(engine, window, variant, throughput toggles, parallelism, robustness).
One frozen dataclass feeds all four former spellings:

* ``create_pipeline(spec=...)`` builds a pipeline from it;
* ``repro.exec.execute(spec=...)`` derives its ``ExecConfig`` from it;
* the CLI argument groups of ``gsnp-call``/``gsnp-submit`` are generated
  from its field metadata (:meth:`JobSpec.add_cli_args`);
* the ``gsnp-serve`` daemon uses its JSON form (:meth:`JobSpec.to_wire`)
  as the submit protocol's wire payload.

Legacy keyword spellings (``create_pipeline(window_size=...)``,
``execute(ds, workers=4)``) keep working through a thin shim that emits a
``DeprecationWarning``; ``gsnp-lint``'s GSNP108 rule flags new code using
them.  The registry is open: :func:`register_engine` admits additional
engines (e.g. an experimental backend) and every error message and CLI
choice list derives from it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from .constants import DEFAULT_WINDOW_GSNP, DEFAULT_WINDOW_SOAPSNP
from .core.likelihood import ALL_VARIANTS, LikelihoodVariant
from .core.pipeline import GsnpPipeline
from .faults.plan import FaultPlan, FaultSpec
from .gpusim.launchplan import MEGABATCH_WINDOWS
from .soapsnp.pipeline import SoapsnpPipeline


class Engine(str, Enum):
    """The three interchangeable SNP-calling engines."""

    GSNP = "gsnp"  # sparse algorithm on the simulated GPU
    GSNP_CPU = "gsnp_cpu"  # sparse algorithm on the host
    SOAPSNP = "soapsnp"  # dense baseline on the host

    def __str__(self) -> str:  # argparse/message friendliness
        return self.value


@runtime_checkable
class Pipeline(Protocol):
    """What every engine's pipeline exposes.

    ``run`` calls SNPs over a dataset (optionally restricted to a
    ``site_range`` of whole windows, with a shared precomputed
    ``calibration``) and returns a result carrying ``table`` (the
    :class:`~repro.formats.cns.ResultTable`) and ``profile`` (the
    :class:`~repro.bench.events.RunProfile` event records).  ``calibrate``
    performs the one-time ``cal_p_matrix`` input pass whose product can be
    shared across shards.
    """

    window_size: int

    def calibrate(self, dataset: Any, reads: Any = None) -> Any: ...

    def run(
        self,
        dataset: Any,
        output_path: Any = None,
        *,
        site_range: Optional[tuple[int, int]] = None,
        calibration: Any = None,
        reads: Any = None,
    ) -> Any: ...


@dataclass(frozen=True)
class EngineSpec:
    """Registry entry describing how to build one engine's pipeline."""

    name: str
    summary: str
    factory: Callable[..., Pipeline]
    #: Hard window-size cap (the dense baseline cannot afford big windows).
    max_window: Optional[int] = None
    #: Display name used by bench tables/figures (defaults to ``name``).
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", self.name)


def _gsnp_factory(params, window_size, variant, device) -> Pipeline:
    return GsnpPipeline(
        params=params, window_size=window_size, mode="gpu",
        variant=variant, device=device,
    )


def _gsnp_cpu_factory(params, window_size, variant, device) -> Pipeline:
    return GsnpPipeline(
        params=params, window_size=window_size, mode="cpu", variant=variant
    )


def _soapsnp_factory(params, window_size, variant, device) -> Pipeline:
    return SoapsnpPipeline(params=params, window_size=window_size)


_REGISTRY: dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec) -> None:
    """Add (or replace) an engine in the registry."""
    _REGISTRY[spec.name] = spec


register_engine(EngineSpec(
    name=Engine.GSNP.value,
    summary="sparse base_word algorithm on the simulated GPU",
    factory=_gsnp_factory,
    label="GSNP",
))
register_engine(EngineSpec(
    name=Engine.GSNP_CPU.value,
    summary="sparse base_word algorithm on the host CPU",
    factory=_gsnp_cpu_factory,
    label="GSNP_CPU",
))
register_engine(EngineSpec(
    name=Engine.SOAPSNP.value,
    summary="dense base_occ baseline (SOAPsnp)",
    factory=_soapsnp_factory,
    max_window=DEFAULT_WINDOW_SOAPSNP,
    label="SOAPsnp",
))


def engine_names() -> tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_REGISTRY)


def resolve_engine(engine: Engine | str) -> Engine | str:
    """Normalize an engine argument against the registry.

    Accepts an :class:`Engine` member or its string value (the legacy
    spelling); returns the :class:`Engine` member when one exists, else the
    validated registered name.  Raises ``ValueError`` naming every
    registered engine otherwise.
    """
    name = engine.value if isinstance(engine, Engine) else engine
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown engine {engine!r}: valid engines are "
            + ", ".join(repr(n) for n in engine_names())
        )
    try:
        return Engine(name)
    except ValueError:
        return name  # registered extension engine without an enum member


def get_engine_spec(engine: Engine | str) -> EngineSpec:
    """The registry entry for an engine (after name resolution)."""
    return _REGISTRY[str(resolve_engine(engine))]


def effective_window(engine: Engine | str, window_size: int) -> int:
    """The window size the engine will actually run (registry cap applied)."""
    spec = get_engine_spec(engine)
    if spec.max_window is not None:
        return min(window_size, spec.max_window)
    return window_size


#: name -> LikelihoodVariant, for wire/CLI spellings of the kernel variant.
VARIANTS_BY_NAME: dict[str, LikelihoodVariant] = {
    v.name: v for v in ALL_VARIANTS
}

#: JSON wire-format version of :meth:`JobSpec.to_wire` payloads.
JOBSPEC_WIRE_VERSION = 1


def _cli(group: str, *flags: str, positional: bool = False, **kwargs):
    """Field metadata describing how one JobSpec field appears on a CLI."""
    return {
        "cli": {
            "flags": flags,
            "group": group,
            "positional": positional,
            "kwargs": kwargs,
        }
    }


@dataclass(frozen=True)
class JobSpec:
    """One calling job, fully described: the single source of truth.

    Every knob that was previously spelled independently in
    ``create_pipeline`` kwargs, ``exec.ExecConfig``,
    ``GsnpDetector.from_files`` and ~15 CLI flags lives here exactly once.
    The dataclass is frozen (use :func:`dataclasses.replace` to derive
    variants), picklable (it ships to executor workers), and JSON-safe via
    :meth:`to_wire`/:meth:`from_wire` — the ``gsnp-serve`` submit payload
    is exactly this object.
    """

    # -- inputs / outputs --------------------------------------------------
    fasta: Optional[str] = field(default=None, metadata=_cli(
        "input/output", "fasta", positional=True, nargs="?",
        help="reference FASTA file",
    ))
    soap: Optional[str] = field(default=None, metadata=_cli(
        "input/output", "soap", positional=True, nargs="?",
        help="SOAP alignment file",
    ))
    samples: tuple = field(default=(), metadata=_cli(
        "input/output", "--samples", nargs="+", default=(),
        metavar="SOAP",
        help="additional cohort sample SOAP files sharing the reference "
        "(the positional soap file is sample 0); the cohort runs with one "
        "pooled calibration, one resident score-table set and sample-major "
        "fused launches",
    ))
    prior: Optional[str] = field(default=None, metadata=_cli(
        "input/output", "--prior",
        help="known-SNP prior file",
    ))
    output: Optional[str] = field(default=None, metadata=_cli(
        "input/output", "-o", "--output",
        help="result file (text, or GSNP compressed with --compressed)",
    ))
    compressed: bool = field(default=False, metadata=_cli(
        "input/output", "--compressed", action="store_true",
        help="write GSNP compressed output instead of text",
    ))
    min_quality: int = field(default=13, metadata=_cli(
        "input/output", "--min-quality", type=int,
        help="quality cutoff for the reported SNP-call count",
    ))

    # -- engine & algorithm ------------------------------------------------
    engine: str = field(default=Engine.GSNP.value, metadata=_cli(
        "engine", "--engine",
        help="SNP-calling engine",
    ))
    window: int = field(default=DEFAULT_WINDOW_GSNP, metadata=_cli(
        "engine", "--window", type=int,
        help="sites per pipeline window (engines may cap it)",
    ))
    variant: "str | LikelihoodVariant" = field(
        default="optimized", metadata=_cli(
            "engine", "--variant",
            help="likelihood kernel variant",
        )
    )

    # -- throughput engine -------------------------------------------------
    prefetch: bool = field(default=True, metadata=_cli(
        "throughput", "--prefetch", action="boolean_optional",
        help="double-buffered window streaming: decode window N+1 while "
        "window N computes (results are bitwise identical either way)",
    ))
    cache: bool = field(default=True, metadata=_cli(
        "throughput", "--no-cache", action="store_false",
        help="disable persistent device residency (re-upload score tables "
        "on every run/shard instead of once per worker)",
    ))
    fusion: bool = field(default=False, metadata=_cli(
        "throughput", "--fusion", action="boolean_optional",
        help="fused ragged-megabatch launching: concatenate windows into "
        "one launch plan so each kernel chain launches once per megabatch "
        "(gsnp engine only; results are bitwise identical either way)",
    ))
    megabatch: int = field(default=MEGABATCH_WINDOWS, metadata=_cli(
        "throughput", "--megabatch", type=int,
        help="windows concatenated per fused launch plan",
    ))

    # -- parallel execution ------------------------------------------------
    workers: int = field(default=1, metadata=_cli(
        "execution", "--workers", type=int,
        help="worker processes; >1 runs the sharded parallel executor",
    ))
    shard_size: Optional[int] = field(default=None, metadata=_cli(
        "execution", "--shard-size", type=int,
        help="sites per shard (snapped up to a window multiple)",
    ))
    shard_timeout: Optional[float] = field(default=None, metadata=_cli(
        "execution", "--shard-timeout", type=float,
        help="per-shard wall-clock deadline in seconds (process pools "
        "only); an expired shard is killed and retried with backoff",
    ))
    devices: int = field(default=1, metadata=_cli(
        "execution", "--devices", type=int,
        help="modeled GPU devices; >1 runs the heterogeneous multi-device "
        "scheduler (work-stealing shard deques over a DevicePool sharing "
        "one PCIe link; gsnp engine only, output bitwise identical to "
        "serial for any count)",
    ))
    cpu_steal: bool = field(default=False, metadata=_cli(
        "execution", "--cpu-steal", action="boolean_optional",
        help="add the sparse host engine (gsnp_cpu) as an extra "
        "work-stealing lane alongside the device pool; it takes shards "
        "only when the modeled clocks say it finishes them sooner "
        "(gsnp engine only)",
    ))

    # -- robustness --------------------------------------------------------
    journal: Optional[str] = field(default=None, metadata=_cli(
        "robustness", "--journal",
        help="shard journal directory: commit each completed shard so an "
        "interrupted run can be resumed",
    ))
    resume: bool = field(default=False, metadata=_cli(
        "robustness", "--resume", action="store_true",
        help="skip shards already committed to --journal; the merged "
        "output is bitwise identical to an uninterrupted run",
    ))
    quarantine: Optional[str] = field(default=None, metadata=_cli(
        "robustness", "--quarantine",
        help="append malformed input records (with file:line context) to "
        "this file and continue, instead of failing the run",
    ))
    sanitize: bool = field(default=False, metadata=_cli(
        "robustness", "--sanitize", action="store_true",
        help="run the simulated device with the kernel sanitizer enabled "
        "(races, hazards, uninitialized reads, leaks); serial engine only",
    ))

    # -- chaos (no CLI flag: schedules are built programmatically) ---------
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if isinstance(self.engine, Engine):
            object.__setattr__(self, "engine", self.engine.value)
        # Wire payloads and argparse both deliver lists; keep the frozen
        # spec hashable/picklable with a tuple either way.
        if self.samples is None:
            object.__setattr__(self, "samples", ())
        elif not isinstance(self.samples, tuple):
            object.__setattr__(self, "samples", tuple(self.samples))

    # -- derived views -----------------------------------------------------

    def resolved_variant(self) -> LikelihoodVariant:
        """The :class:`LikelihoodVariant` object this spec names."""
        if isinstance(self.variant, LikelihoodVariant):
            return self.variant
        try:
            return VARIANTS_BY_NAME[self.variant]
        except KeyError:
            raise ValueError(
                f"unknown likelihood variant {self.variant!r}; valid "
                "variants: " + ", ".join(sorted(VARIANTS_BY_NAME))
            ) from None

    @property
    def variant_name(self) -> str:
        """The variant's wire spelling (its registered name)."""
        return getattr(self.variant, "name", str(self.variant))

    @property
    def is_cohort(self) -> bool:
        """Whether this job calls a multi-sample cohort."""
        return bool(self.samples)

    @property
    def n_samples(self) -> int:
        """Cohort size (the primary soap input is sample 0)."""
        return 1 + len(self.samples)

    @property
    def uses_device_pool(self) -> bool:
        """Whether this job runs the heterogeneous multi-device scheduler."""
        return self.devices > 1 or self.cpu_steal

    @property
    def uses_executor(self) -> bool:
        """Whether this job routes through the sharded executor."""
        return (
            self.workers > 1
            or self.shard_size is not None
            or self.uses_device_pool
        )

    def validate(self, require_inputs: bool = False) -> "JobSpec":
        """Raise ``ValueError`` on incoherent field combinations.

        Returns ``self`` so call sites can chain
        ``spec.validate().normalized()``.
        """
        resolve_engine(self.engine)
        self.resolved_variant()
        if self.resume and not self.journal:
            raise ValueError("resume=True requires a journal directory")
        if (
            self.sanitize
            and not self.uses_device_pool
            and (self.workers > 1 or self.shard_size is not None)
        ):
            raise ValueError(
                "sanitize=True requires the serial engine (workers=1, no "
                "shard_size): the sharded executor owns its per-shard "
                "devices.  The multi-device scheduler (--devices/"
                "--cpu-steal) does support the sanitizer — its lanes are "
                "thread-confined"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.devices < 1:
            raise ValueError("devices must be >= 1")
        if self.uses_device_pool and self.engine != Engine.GSNP.value:
            raise ValueError(
                "devices>1 / cpu_steal require the gsnp engine: the "
                "heterogeneous scheduler pairs the device pool with the "
                "gsnp_cpu steal lane"
            )
        if self.megabatch < 1:
            raise ValueError("megabatch must be >= 1")
        if self.is_cohort and self.engine not in (
            Engine.GSNP.value, Engine.GSNP_CPU.value
        ):
            raise ValueError(
                "cohort samples require the gsnp or gsnp_cpu engine: the "
                "dense baseline has no sample-major batched path"
            )
        if require_inputs and not (self.fasta and self.soap):
            raise ValueError("a runnable job needs fasta and soap inputs")
        return self

    def normalized(self) -> "JobSpec":
        """The spec with executor-routing defaults applied.

        Journalling and shard deadlines live in the sharded executor; a
        serial invocation that asks for either gets enough shards to
        checkpoint between (``shard_size = window``), exactly as the CLI
        has always done.
        """
        if (
            (self.journal or self.shard_timeout)
            and self.workers == 1
            and self.shard_size is None
        ):
            return replace(self, shard_size=self.window)
        return self

    # -- wire format (the gsnp-serve submit payload) -----------------------

    def to_wire(self) -> dict:
        """JSON-safe dict form; the serve protocol's submit payload."""
        out: dict = {"version": JOBSPEC_WIRE_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "variant":
                value = self.variant_name
            elif f.name == "faults" and value is not None:
                value = {
                    "seed": value.seed,
                    "specs": [
                        {
                            "site": s.site, "kind": s.kind, "key": s.key,
                            "after": s.after, "times": s.times, "arg": s.arg,
                        }
                        for s in value.specs
                    ],
                }
            out[f.name] = value
        return out

    @classmethod
    def from_wire(cls, payload: dict) -> "JobSpec":
        """Rebuild a spec from :meth:`to_wire` output (strict on keys)."""
        if not isinstance(payload, dict):
            raise ValueError(f"JobSpec payload must be a dict, got "
                             f"{type(payload).__name__}")
        data = dict(payload)
        version = data.pop("version", JOBSPEC_WIRE_VERSION)
        if version != JOBSPEC_WIRE_VERSION:
            raise ValueError(
                f"unsupported JobSpec wire version {version!r} "
                f"(expected {JOBSPEC_WIRE_VERSION})"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                "unknown JobSpec field(s): " + ", ".join(unknown)
            )
        faults = data.get("faults")
        if faults is not None and not isinstance(faults, FaultPlan):
            data["faults"] = FaultPlan(
                tuple(FaultSpec(**s) for s in faults.get("specs", ())),
                seed=faults.get("seed"),
            )
        return cls(**data)

    # -- CLI derivation ----------------------------------------------------

    @classmethod
    def cli_fields(cls):
        """(field, cli-metadata) pairs for every CLI-exposed field."""
        return [
            (f, f.metadata["cli"]) for f in fields(cls) if "cli" in f.metadata
        ]

    @classmethod
    def add_cli_args(cls, parser, inputs: bool = True) -> None:
        """Add the job's argument groups to an ``argparse`` parser.

        Flags, defaults, choice lists and help strings all derive from the
        field metadata, so the CLI can never drift from the dataclass.
        ``inputs=False`` skips the positional ``fasta``/``soap`` operands
        (``gsnp-submit --stats`` style invocations take no inputs).
        """
        import argparse

        groups: dict[str, Any] = {}
        for f, cli in cls.cli_fields():
            if cli["positional"] and not inputs:
                continue
            group = groups.setdefault(
                cli["group"], parser.add_argument_group(cli["group"])
            )
            kwargs = dict(cli["kwargs"])
            action = kwargs.pop("action", None)
            if action == "boolean_optional":
                kwargs["action"] = argparse.BooleanOptionalAction
            elif action is not None:
                kwargs["action"] = action
            if f.name == "engine":
                kwargs["choices"] = engine_names()
            elif f.name == "variant":
                kwargs["choices"] = tuple(VARIANTS_BY_NAME)
            if cli["positional"]:
                group.add_argument(*cli["flags"], **kwargs)
            else:
                kwargs.setdefault("default", f.default)
                kwargs.setdefault("dest", f.name)
                group.add_argument(*cli["flags"], **kwargs)

    @classmethod
    def from_cli_args(cls, namespace) -> "JobSpec":
        """Build a spec from a parsed namespace of :meth:`add_cli_args`."""
        values = {}
        for f, _cli_meta in cls.cli_fields():
            if hasattr(namespace, f.name):
                values[f.name] = getattr(namespace, f.name)
        return cls(**values)


#: Field defaults, for "was a non-default value requested?" checks.
_SPEC_DEFAULTS = JobSpec()

#: The create_pipeline kwargs superseded by JobSpec (the GSNP108 set).
LEGACY_PIPELINE_KWARGS = (
    "window_size", "variant", "prefetch", "cache", "fusion", "megabatch",
)


def _spec_from_legacy(engine, window_size, variant, toggles: dict) -> JobSpec:
    """The deprecation shim: fold legacy kwargs into a JobSpec."""
    values: dict = {"engine": str(resolve_engine(engine))}
    if window_size is not None:
        values["window"] = window_size
    if variant is not None:
        values["variant"] = variant
    for name, value in toggles.items():
        if value is not None:
            values[name] = value
    return JobSpec(**values)


def create_pipeline(
    engine: Engine | str | None = None,
    *,
    spec: Optional[JobSpec] = None,
    params=None,
    device=None,
    window_size: Optional[int] = None,
    variant: Optional[LikelihoodVariant] = None,
    prefetch: Optional[bool] = None,
    cache: Optional[bool] = None,
    fusion: Optional[bool] = None,
    megabatch: Optional[int] = None,
) -> Pipeline:
    """Build the pipeline for an engine through the registry.

    The preferred call is ``create_pipeline(spec=JobSpec(...))`` —
    ``params`` (a :class:`~repro.soapsnp.model.CallingParams`) and
    ``device`` (a prebuilt simulated device) stay separate because they
    are runtime objects, not job configuration.  The legacy spelling
    (``engine`` plus ``window_size``/``variant``/toggle kwargs) keeps
    working through a shim that emits a ``DeprecationWarning``;
    ``gsnp-lint`` GSNP108 flags it in new code.

    Registered extension factories keep the legacy 4-argument signature —
    the throughput toggles are applied as attributes only when the built
    pipeline exposes them, and a requested non-default toggle the engine
    does not expose raises a ``RuntimeWarning`` instead of being silently
    dropped.
    """
    legacy = {
        "window_size": window_size, "variant": variant, "prefetch": prefetch,
        "cache": cache, "fusion": fusion, "megabatch": megabatch,
    }
    explicit = {k for k, v in legacy.items() if v is not None}
    if spec is not None:
        if engine is not None or explicit:
            raise ValueError(
                "create_pipeline(spec=...) does not combine with the "
                "legacy engine/config kwargs: set those fields on the "
                "JobSpec instead"
            )
    else:
        if explicit:
            warnings.warn(
                "create_pipeline("
                + ", ".join(f"{k}=..." for k in sorted(explicit))
                + ") is deprecated; pass spec=JobSpec(...) instead",
                DeprecationWarning,
                stacklevel=2,
            )
        spec = _spec_from_legacy(
            engine if engine is not None else Engine.GSNP,
            window_size,
            variant,
            {
                "prefetch": prefetch, "cache": cache,
                "fusion": fusion, "megabatch": megabatch,
            },
        )
    engine_spec = get_engine_spec(spec.engine)
    window = effective_window(spec.engine, spec.window)
    pipe = engine_spec.factory(params, window, spec.resolved_variant(), device)
    for attr in ("prefetch", "cache", "fusion", "megabatch"):
        value = getattr(spec, attr)
        if hasattr(pipe, attr):
            setattr(pipe, attr, value)
        elif value != getattr(_SPEC_DEFAULTS, attr):
            warnings.warn(
                f"engine {spec.engine!r} does not expose {attr!r}; the "
                f"requested {attr}={value!r} is ignored",
                RuntimeWarning,
                stacklevel=2,
            )
    return pipe


__all__ = [
    "Engine",
    "EngineSpec",
    "JOBSPEC_WIRE_VERSION",
    "JobSpec",
    "LEGACY_PIPELINE_KWARGS",
    "Pipeline",
    "VARIANTS_BY_NAME",
    "create_pipeline",
    "effective_window",
    "engine_names",
    "get_engine_spec",
    "register_engine",
    "resolve_engine",
]
