"""The shared campaign front-end: one base class per abstraction level.

A front-end binds a workload to one registered backend: it picks the
toolchain personality, the simulator configuration and the mode presets
(observation point + termination rule), then hands a picklable
``sim_factory`` to the level-generic campaign engine.  ``GeFIN``
(``uarch``), ``SafetyVerifier`` (``rtl``) and ``ArchEmu`` (``arch``)
are thin subclasses; they contain no injection logic.

The mode vocabulary is shared so the same experiment matrix can run at
any level -- each subclass lists the subset its real-world counterpart
offers in ``MODES``.
"""

from repro.isa.toolchain import Toolchain
from repro.sim import registry
from repro.workloads import registry as workloads

#: Sentinel default for ``window=``: "use the paper's scaled 20 kcycle
#: window" (:data:`repro.injection.campaign.SCALED_WINDOW`) without
#: stealing ``None``, which callers pass to mean "run to program end".
USE_SCALED_WINDOW = object()


class Frontend:
    """Campaign front-end over one registered simulation backend.

    Subclasses set ``LEVEL``, ``DEFAULT_TOOLCHAIN``, ``MODES`` (mode
    name -> ``(observation, windowed)``) and implement
    ``_default_sim_config(scaled_caches)``.
    """

    LEVEL = None
    DEFAULT_TOOLCHAIN = "gnu"

    #: Campaign cache size: the workloads are scaled ~500x relative to
    #: full MiBench, so campaigns shrink both L1s (same 4-way geometry)
    #: to keep the live fraction of the array -- and hence the per-bit
    #: vulnerability -- in the paper's range.  Table I reporting uses the
    #: unscaled configuration.  Applied identically at every level that
    #: models caches.
    SCALED_CACHE_BYTES = 1024

    #: mode name -> (observation point, windowed?).
    MODES = {}

    def __init__(self, workload, toolchain=None, sim_config=None,
                 scaled_caches=True):
        self.workload = workload
        self.toolchain = Toolchain(toolchain or self.DEFAULT_TOOLCHAIN)
        if sim_config is None:
            sim_config = self._default_sim_config(scaled_caches)
        self.sim_config = sim_config
        self.program = workloads.build(workload, self.toolchain)

    def _default_sim_config(self, scaled_caches):
        raise NotImplementedError

    # ------------------------------------------------------------------

    def sim_factory(self):
        """One fresh simulator (picklable bound method: workers rebuild
        the machine from the program + config this front-end holds)."""
        cls = registry.get(self.LEVEL).simulator_class()
        return cls(self.program, self.sim_config)

    def make_config(self, mode, samples, seed=2017,
                    window=USE_SCALED_WINDOW, distribution="normal",
                    **extra):
        """A :class:`~repro.injection.campaign.CampaignConfig` for one
        of this front-end's modes."""
        from repro.injection.campaign import CampaignConfig, SCALED_WINDOW

        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}")
        observation, windowed = self.MODES[mode]
        if window is USE_SCALED_WINDOW:
            window = SCALED_WINDOW
        return CampaignConfig(
            samples=samples, window=window if windowed else None,
            observation=observation, seed=seed,
            distribution=distribution, **extra,
        )

    def _default_accelerate(self, structure, mode):
        """Whether inject-near-consumption acceleration defaults to on."""
        return False

    def new_campaign(self, structure, mode="pinout", samples=100,
                     seed=2017, window=USE_SCALED_WINDOW,
                     distribution="normal", *, accelerate=None, **extra):
        """The :class:`~repro.injection.campaign.Campaign` that
        :meth:`campaign` runs, not yet run."""
        from repro.injection.campaign import Campaign

        if accelerate is None:
            accelerate = self._default_accelerate(structure, mode)
        config = self.make_config(
            mode, samples, seed=seed, window=window,
            distribution=distribution, accelerate=accelerate, **extra,
        )
        return Campaign(
            self.sim_factory, structure, config,
            workload=self.workload, level=self.LEVEL,
        )

    def campaign(self, structure, mode="pinout", samples=100, seed=2017,
                 window=USE_SCALED_WINDOW, distribution="normal", *,
                 accelerate=None, progress=None, store=None, resume=False,
                 store_format=None, golden_pool=None, **extra):
        """Run one campaign.  ``structure`` is e.g. ``regfile`` or
        ``l1d.data``.

        Extra keyword arguments reach :class:`CampaignConfig` -- most
        notably ``jobs=N``/``batch_size=M`` to fan the faulty runs out
        over a process pool (:mod:`repro.injection.executor`); results
        are identical for any worker count.  ``store`` (a directory
        path or :class:`~repro.injection.store.CampaignStore`) makes
        the campaign durable; ``resume=True`` skips faults already on
        disk; ``store_format`` picks the record format for fresh
        stores (``"binary"``/``"jsonl"``, default binary).
        ``golden_pool`` (a caller-owned dict) lets compatible
        campaigns share one golden capture -- see
        :meth:`repro.injection.campaign.Campaign.run`; pool sharers
        must agree on toolchain and simulator configuration, which any
        pool confined to one :class:`ScenarioRunner`/study does.
        """
        from repro.injection.store import as_store

        campaign = self.new_campaign(
            structure, mode, samples, seed, window, distribution,
            accelerate=accelerate, **extra)
        return campaign.run(progress=progress,
                            store=as_store(store, store_format),
                            resume=resume, golden_pool=golden_pool)

    def golden_run(self):
        """One fault-free run; returns the simulator for inspection."""
        sim = self.sim_factory()
        sim.run()
        return sim

    def __repr__(self):
        return (
            f"{type(self).__name__}({self.workload!r},"
            f" toolchain={self.toolchain.name})"
        )
