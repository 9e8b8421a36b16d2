"""Monte Carlo oracles: finite-system SINR, channel paths, FIFO queueing.

These simulators exist to check the analytical pipeline from the outside:
the finite-dimensional LMMSE SINR should concentrate on the decoupled
value, simulated channel paths should reproduce the chain statistics, and
measured queueing delays should violate the calculus bound no more often
than epsilon.

Queue accounting: arrivals land at slot boundaries before that slot's
service (the conservative choice).  A block's delay is the number of whole
slots after its arrival slot until its last bit has departed, so a block
fully served within its arrival slot has delay 0.  This matches the
virtual-delay quantity the MGF bound controls.
"""
from dataclasses import dataclass
import math

import numpy as np

from .fsmc import FsmcModel
from .netcal import PeriodicSource


def _rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_finite_sinr_batch(m, k, sigma2, n, seed=None, chunk=128):
    """Draw n finite-system SINR samples; returns (sinr, p1) arrays.

    Signatures are i.i.d. CN(0, I/m) columns, channel gains CN(0, 1); the
    tagged user's SINR is p1 * s1^H M^-1 s1 with M = sigma2 I + A A^H the
    interference-plus-noise covariance over users 2..k (A = columns
    sqrt(p_j) s_j).  By the Woodbury identity
    s1^H M^-1 s1 = (|s1|^2 - y^H (sigma2 I + A^H A)^-1 y) / sigma2 with
    y = A^H s1, a batched solve of order k - 1 instead of m.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive integers")
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    rng = _rng(seed)
    sinr = np.empty(n)
    p1 = np.empty(n)
    done = 0
    eye = sigma2 * np.eye(k - 1)
    while done < n:
        c = min(chunk, n - done)
        s = (rng.standard_normal((c, m, k)) + 1j * rng.standard_normal((c, m, k)))
        s /= math.sqrt(2 * m)
        h = (rng.standard_normal((c, k)) + 1j * rng.standard_normal((c, k))) / math.sqrt(2)
        p = np.abs(h) ** 2
        a = s[:, :, 1:] * np.sqrt(p[:, None, 1:])
        a_h = a.conj().transpose(0, 2, 1)
        s1 = s[:, :, 0]
        y = a_h @ s1[:, :, None]
        x = np.linalg.solve(a_h @ a + eye, y)
        quad = (np.sum(np.abs(s1) ** 2, axis=1)
                - np.real(np.sum(y.conj() * x, axis=(1, 2)))) / sigma2
        sinr[done:done + c] = p[:, 0] * quad
        p1[done:done + c] = p[:, 0]
        done += c
    return sinr, p1


def simulate_fsmc(model: FsmcModel, n_slots, seed=None, init_state=None):
    """Simulate the mode chain for n_slots; the initial state is drawn from pi."""
    if n_slots < 0:
        raise ValueError("n_slots must be nonnegative")
    rng = _rng(seed)
    out = np.empty(n_slots, dtype=np.int64)
    if n_slots == 0:
        return out
    p = model.transition
    n_states = model.n_states
    lo = [float(p[s, s - 1]) if s > 0 else 0.0 for s in range(n_states)]
    mid = [lo[s] + float(p[s, s]) for s in range(n_states)]
    if init_state is None:
        cum = np.cumsum(model.pi)
        state = int(min(np.searchsorted(cum, rng.random(), side="right"),
                        n_states - 1))
    else:
        state = int(init_state)
        if not 0 <= state < n_states:
            raise ValueError("init_state out of range")
    out[0] = state
    u = rng.random(n_slots - 1)
    lo_s, mid_s = lo[state], mid[state]
    for t in range(1, n_slots):
        ut = u[t - 1]
        if ut < lo_s:
            state -= 1
            lo_s, mid_s = lo[state], mid[state]
        elif ut >= mid_s:
            state += 1
            lo_s, mid_s = lo[state], mid[state]
        out[t] = state
    return out


@dataclass(frozen=True)
class QueueTrace:
    """Result of a slotted FIFO run: per-slot records plus per-block delays."""

    arrivals_blocks: np.ndarray   # per slot of the arrival window
    service_blocks: np.ndarray    # per slot, including any drain slots
    delays_slots: np.ndarray      # one sample per arrival epoch (batch last bit)
    n_slots: int                  # arrival window length
    epochs: int                   # arrival epochs = delivered + undelivered
    blocks_per_epoch: float
    undelivered: int              # epochs never fully served (censored)
    backlog_peak: float
    unstable: bool                # backlog cap exceeded; run truncated there
    seed: object

    def violation_frequency(self, d_slots):
        """Fraction of blocks with delay > d_slots, censored epochs counted as
        violations, plus its binomial standard error."""
        if self.epochs == 0:
            return 0.0, 0.0
        bad = int(np.sum(self.delays_slots > d_slots)) + self.undelivered
        f = bad / self.epochs
        return f, math.sqrt(f * (1 - f) / self.epochs)

    def delay_quantiles(self, qs=(0.5, 0.9, 0.99, 0.999)):
        if len(self.delays_slots) == 0:
            return {q: math.nan for q in qs}
        return {q: float(np.quantile(self.delays_slots, q)) for q in qs}


def simulate_fifo_queue(model: FsmcModel, source: PeriodicSource, n_slots,
                        seed=None, init_state=None, backlog_cap=1e9,
                        drain_slot_cap=None):
    """Feed a periodic source through the FSMC server and record block delays.

    The chain starts from its stationary law; for periods longer than one
    slot the arrival phase is drawn uniformly.  After the arrival window the
    server keeps running (up to ``drain_slot_cap`` extra slots, default
    n_slots) so late blocks get a defined delay; anything still stuck is
    reported as ``undelivered``.  If the backlog tops ``backlog_cap`` the
    run is truncated at that slot and flagged unstable.
    """
    if n_slots < 1:
        raise ValueError("n_slots must be positive")
    rng = _rng(seed)
    if drain_slot_cap is None:
        drain_slot_cap = n_slots
    phase = 0 if source.tau_slots == 1 else int(rng.integers(source.tau_slots))
    states = simulate_fsmc(model, n_slots, seed=rng, init_state=init_state)
    rates = model.rates_blocks

    delta = source.delta_blocks
    tau = source.tau_slots
    t_idx = np.arange(n_slots)
    epoch_count_by_slot = np.where(t_idx >= phase, (t_idx - phase) // tau + 1, 0)
    ca = delta * epoch_count_by_slot
    arrivals = np.diff(np.concatenate(([0.0], ca)))

    epoch_slots = np.arange(phase, n_slots, tau)
    epochs = len(epoch_slots)
    levels = delta * (np.arange(epochs) + 1.0)

    def departures(cs_all, ca_all):
        e = ca_all - cs_all
        return cs_all + np.minimum(np.minimum.accumulate(e), 0.0)

    cs = np.cumsum(rates[states])
    backlog = ca - departures(cs, ca)
    peak = float(backlog.max(initial=0.0))
    unstable = peak > backlog_cap
    if unstable:
        cut = int(np.argmax(backlog > backlog_cap)) + 1
        states = states[:cut]
        cs = cs[:cut]
        ca_full = ca[:cut]
        keep = epoch_slots < cut
        epoch_slots, levels = epoch_slots[keep], levels[keep]
        epochs = len(epoch_slots)
        n_window = cut
    else:
        ca_full = ca
        n_window = n_slots

    # extend service (no new arrivals) until every epoch departs or the cap hits
    if not unstable and epochs:
        total = levels[-1]
        extra_used = 0
        while extra_used < drain_slot_cap:
            d_arr = departures(cs, np.concatenate((ca_full,
                               np.full(len(cs) - len(ca_full), ca_full[-1]))))
            if d_arr[-1] >= total:
                break
            mean_rate = max(float(model.pi @ rates), 1e-12)
            need = int(min(drain_slot_cap - extra_used,
                           max(1024, 1.5 * (total - d_arr[-1]) / mean_rate)))
            more = simulate_fsmc(model, need + 1, seed=rng,
                                 init_state=int(states[-1]))[1:]
            states = np.concatenate((states, more))
            cs = np.cumsum(rates[states])
            extra_used += need

    ca_ext = np.concatenate((ca_full, np.full(len(cs) - len(ca_full),
                                              ca_full[-1] if len(ca_full) else 0.0)))
    dep = departures(cs, ca_ext)

    if epochs:
        tol = np.maximum(1e-9, 1e-12 * levels)
        dep_slot = np.searchsorted(dep, levels - tol, side="left")
        served = dep_slot < len(dep)
        # a block cannot depart before its own arrival slot (relevant at delta=0)
        delays = np.maximum(dep_slot[served] - epoch_slots[served], 0)
        undelivered = int(np.sum(~served))
    else:
        delays = np.zeros(0, dtype=np.int64)
        undelivered = 0

    return QueueTrace(
        arrivals_blocks=arrivals[:n_window],
        service_blocks=rates[states],
        delays_slots=delays.astype(np.int64),
        n_slots=n_window,
        epochs=epochs,
        blocks_per_epoch=delta,
        undelivered=undelivered,
        backlog_peak=peak,
        unstable=unstable,
        seed=seed,
    )
