"""Reference input predictors for tests.

A speculating part builds one :class:`~repro.core.rollback.InputPredictor`
for its game.  The property and floor tests compare it with simpler and
worse guessers: each test builds its session, then assigns one of these to
every part's ``predictor`` before the run.
"""

from repro.core.rollback import InputPredictor


class HoldLastConfirmed(InputPredictor):
    """Reference predictor: hold each site's newest *delivered* pad state.

    An observation counts as delivered once the lockstep delivery pointer
    has passed its frame; inputs never change after they are sent, so the
    newest such observation is the site's last confirmed pad state.
    """

    def __init__(self, lockstep):
        super().__init__()
        self._lockstep = lockstep
        #: Per site: observed-but-undelivered {frame: bits}, and the
        #: newest delivered (frame, bits).
        self._pending = {}
        self._confirmed = {}

    def observe(self, site, frame, bits):
        self._pending.setdefault(site, {})[frame] = bits

    def predict(self, site, frame):
        pending = self._pending.get(site, {})
        pointer = self._lockstep.ibuf_pointer
        for delivered in sorted(f for f in pending if f < pointer):
            bits = pending.pop(delivered)
            newest = self._confirmed.get(site)
            if newest is None or delivered >= newest[0]:
                self._confirmed[site] = (delivered, bits)
        entry = self._confirmed.get(site)
        return entry[1] if entry is not None else 0


class AlwaysWrong(InputPredictor):
    """Adversarial predictor: the complement of the newest pad heard, so
    every guess it is asked for differs from the site's held pad state."""

    def predict(self, site, frame):
        entry = self._seen.get(site)
        return ~(entry[1] if entry is not None else 0)


#: Reference predictors by name, each built for one attached part; the
#: heuristic is the one every part builds for itself.
REFERENCE_PREDICTORS = {
    "naive": lambda part: HoldLastConfirmed(part.runtime.lockstep),
    # An impulse hold that never runs out repeats the newest pad heard.
    "repeat-last": lambda part: InputPredictor(impulse_hold=float("inf")),
    "heuristic": lambda part: part.predictor,
    "always-wrong": lambda part: AlwaysWrong(),
}


def use_predictor(session, name):
    """Give every site's part the named predictor; call before the run."""
    for vm in session.vms:
        part = vm.engine.consistency
        part.predictor = REFERENCE_PREDICTORS[name](part)
