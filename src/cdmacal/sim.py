"""Monte Carlo counterparts: channel paths and FIFO queueing.

These simulators check the analytical pipeline from the outside: simulated
channel paths should reproduce the chain statistics, and measured queueing
delays should violate the calculus bound no more often than epsilon.

Queue accounting: arrivals land at slot boundaries before that slot's
service (the conservative choice).  A block's delay is the number of whole
slots after its arrival slot until its last bit has departed, so a block
fully served within its arrival slot has delay 0.  This matches the
virtual-delay quantity the MGF bound controls.  For cumulative arrivals
A and service S, departures D(t) = S(t) + min(0, min_{s<=t} [A - S](s)) are
min(S(t) + c_k, A(t)) from arrival slot a_k to the next, as A is flat, with
c_k = min(0, min_{i<=k} [A - S](a_i - 1)); c_k moves only once the queue is
empty, so block k departs at the first t >= a_k with S(t) >= its level - c_k.
"""
from dataclasses import dataclass
import functools
import math

import numpy as np

from .errors import whole_number
from .fsmc import FsmcModel
from .netcal import PeriodicSource


# Words per block of the chain's prefix scan.
_BLOCK = 64
# Most maps a word table holds, one per word of draw cells.
_WORDS = 4096


@functools.lru_cache(maxsize=16)
def _word_table(model):
    """simulate_fsmc's per-model part: cuts, K, w, one, table, word scale."""
    lo = np.append(0.0, model.bands[2])
    mid = lo + model.bands[1]
    th = np.sort(np.concatenate((lo, mid)))     # th[0] = lo[0] = 0: no cut
    cuts = th[1:][(th[1:] > th[:-1]) & (th[1:] < 1)]
    k = len(cuts) + 1
    w = max((i for i in range(2, 13) if k ** i <= _WORDS), default=1)
    # one[c, s]: the state a draw in cell c sends s to, read at the cell's
    # lower end; table[word, s] for a word's cells c_0 + c_1 K + ...
    at = np.append(0.0, cuts)[:, None]
    one = (np.arange(model.n_states) - (at < lo) + (at >= mid)).astype(
        np.min_scalar_type(model.n_states))
    table = one
    for _ in range(w - 1):
        table = one[:, table].reshape(-1, model.n_states)
    scale = model.n_states * k ** np.arange(w)      # cells -> flat index
    return cuts, k, w, one, table, scale.astype(np.min_scalar_type(table.size))


def simulate_fsmc(model: FsmcModel, n_slots, seed=None, init_state=None):
    """Simulate the mode chain for n_slots from init_state, or else from pi.

    Slot t's draw u maps state s to s - 1 if u < P[s, s-1], to s + 1 if
    u >= P[s, s-1] + P[s, s]; so the map depends on u only through its cell
    among the distinct thresholds inside (0, 1), one of K cells, and a word
    of w draws is one of the K**w <= ``_WORDS`` maps of a table.  The maps
    compose, so the path is a prefix scan: each block of ``_BLOCK`` words
    steps all L start states with one table lookup per word, the block ends
    are chained, and the states inside each word follow from the one-draw
    maps: the same path as a per-slot walk.
    """
    n_slots = whole_number("n_slots", n_slots, 0)
    cuts, k, w, one, table, scale = _word_table(model)
    rng = np.random.default_rng(seed)
    if n_slots == 0:
        return np.empty(0, dtype=np.int64)
    n_states = model.n_states
    if init_state is None:
        cum = np.cumsum(model.pi)
        state = int(min(np.searchsorted(cum, rng.random(), side="right"),
                        n_states - 1))
    else:
        state = whole_number("init_state", init_state, 0, n_states - 1)
    m = n_slots - 1
    blk = max(1, min(_BLOCK, -(-m // w)))
    nb = -(-m // (w * blk))
    u = rng.random(m)
    # one word of cells per row; the pad words follow the path's end
    cells = np.zeros((nb * blk, w), dtype=np.min_scalar_type(k))
    for c in cuts:
        cells.reshape(-1)[:m] += u >= c
    del u                       # freed before the output is allocated
    words = sum(c * col for c, col in zip(scale, cells.T))
    s = np.arange(n_states, dtype=one.dtype)[:, None]
    seen = np.empty((blk, n_states, nb), dtype=one.dtype)
    for j, wj in enumerate(words.reshape(nb, blk).T.copy()):
        seen[j] = s = table.take(wj + s)
    starts = [state]
    for row in seen[-1].T.tolist():
        starts.append(row[starts[-1]])
    out = np.empty(1 + cells.size, dtype=np.int64)
    out[0] = state
    path = out[1:].reshape(-1, w)
    path[:, -1] = seen[:, starts[:-1], np.arange(nb)].T.reshape(-1)
    prev = out[:-1:w]
    for i in range(w - 1):
        prev = path[:, i] = one.T.take(prev * k + cells[:, i])
    return out[:n_slots]


@dataclass(frozen=True)
class QueueTrace:
    """Result of a slotted FIFO run: one delay per delivered arrival epoch."""

    delays_slots: np.ndarray      # one sample per delivered epoch (batch last bit)
    epochs: int                   # arrival epochs = delivered + undelivered
    undelivered: int              # epochs never fully served (censored)

    def violation_frequency(self, d_slots):
        """Fraction of blocks with delay > d_slots, censored epochs counted as
        violations, plus its binomial standard error."""
        d_slots = whole_number("d_slots", d_slots, 0)
        if self.epochs == 0:
            return 0.0, 0.0
        bad = int(np.sum(self.delays_slots > d_slots)) + self.undelivered
        f = bad / self.epochs
        return f, math.sqrt(f * (1 - f) / self.epochs)

    def delay_quantiles(self, qs=(0.5, 0.9, 0.99, 0.999)):
        """Empirical delay quantiles over all epochs, censored ones counted as
        +inf: the q-quantile is the smallest whole d with
        ``violation_frequency(d)[0] <= 1 - q``."""
        if self.epochs == 0:
            return {q: math.nan for q in qs}
        d = np.concatenate((self.delays_slots, np.full(self.undelivered, np.inf)))
        return {q: float(np.quantile(d, q, method="inverted_cdf")) for q in qs}


# Slots per pass of the queue loop; bounds its working memory.
_CHUNK = 1 << 16


def simulate_fifo_queue(model: FsmcModel, source: PeriodicSource, n_slots,
                        seed=None):
    """Feed a periodic source through the FSMC server and record block delays.

    The chain starts from its stationary law; for periods longer than one
    slot the arrival phase is drawn uniformly.  After the arrival window the
    server keeps running, for at most n_slots extra slots, until every block
    has departed; anything still queued then is reported as ``undelivered``.
    No constant is counted in blocks, so scaling the service rates and the
    batch size by one factor leaves the delays unchanged.

    One loop walks the path in chunks of ``_CHUNK`` slots, carrying S, c,
    the chain state and the blocks not yet departed, so memory beyond one
    delay per epoch does not grow with n_slots.
    """
    n_slots = whole_number("n_slots", n_slots, 1)
    rng = np.random.default_rng(seed)
    delta, tau = source.delta_blocks, int(source.tau_slots)
    phase = 0 if tau == 1 else int(rng.integers(tau))
    rates = model.rates_blocks
    epochs = len(range(phase, n_slots, tau))
    service, low, state, nxt, delays = 0.0, 0.0, None, 0, []
    t0, wait = 0, np.empty(0)       # wait[j]: block nxt + j's level - c
    while t0 < n_slots or (nxt < epochs and t0 < 2 * n_slots):
        t1 = min(t0 + _CHUNK, n_slots if t0 < n_slots else 2 * n_slots)
        path = simulate_fsmc(model, t1 - t0 + (state is not None), seed=rng,
                             init_state=state)[t0 - t1:]  # less the carry
        state = int(path[-1])
        s = np.cumsum(np.append(service, rates.take(path)))  # s[i] = S(t0 - 1 + i)
        # epochs arriving in this chunk (none after the window), their c_k
        k = np.arange(nxt + len(wait), len(range(phase, min(t1, n_slots), tau)))
        lows = np.minimum.accumulate(
            np.append(low, delta * k - s[phase + k * tau - t0]))
        levels = delta * (k + 1.0)
        wait = np.append(wait, levels - 1e-12 * levels - lows[1:])
        slot = np.searchsorted(s[1:], wait[wait <= s[-1]])     # departures
        # a block cannot depart before its own arrival slot (relevant at delta=0)
        delays.append(np.maximum(t0 + slot - phase
                                 - np.arange(nxt, nxt + len(slot)) * tau, 0))
        nxt, wait = nxt + len(slot), wait[len(slot):]
        service, low, t0 = s[-1], lows[-1], t1
    return QueueTrace(np.concatenate(delays), epochs, epochs - nxt)
