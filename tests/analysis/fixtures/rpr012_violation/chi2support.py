"""Fixture miner: the authoritative knob surface (drifted trio)."""


class ChiSquaredSupportMiner:
    def __init__(
        self,
        significance=0.05,
        support=None,
        max_level=None,
        workers=None,
        telemetry=None,
    ):
        self.significance = significance
        self.support = support
        self.max_level = max_level
        self.workers = workers
