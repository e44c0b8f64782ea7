"""CTA dispatch: baseline greedy vs deterministic static distribution.

Paper Section IV-C5: "determinism additionally requires the set of warps
assigned to each scheduler is also deterministic ... We statically
partition CTAs among each scheduler in each SM."

* **Deterministic mode** — CTA *i* of a kernel goes to SM ``i % num_sms``
  and, within the SM, to a fixed hardware-slot range derived from its
  per-SM sequence number; placement waits for exactly those slots.  CTAs
  also carry a *batch* number: all atomics of batch *b* must be issued
  before any atomic of batch *b+1* on the same SM (non-atomic work from
  *b+1* may run early).
* **Baseline mode** — CTAs go to whichever SM frees capacity first
  (lowest SM id wins ties), the usual greedy distribution, which is
  timing-dependent and thus non-deterministic under latency jitter.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.arch.kernel import CTA, Kernel, KernelLaunch

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.sm import SM


class CTADispatcher:
    def __init__(self, sms: List["SM"], deterministic: bool, obs=None):
        self.sms = sms
        self.deterministic = deterministic
        self.obs = obs
        self._launch: Optional[KernelLaunch] = None
        #: deterministic mode: per-SM queues of CTA ids, placed in order.
        self._per_sm_next: List[int] = [0] * len(sms)

    def _emit_place(self, now: int, cta: CTA) -> None:
        self.obs.emit_at(now, "dispatch", "cta_place", cta=cta.cta_id,
                         sm=cta.sm_id, batch=cta.batch)

    # ------------------------------------------------------------------
    def begin_kernel(self, kernel: Kernel) -> None:
        self._launch = KernelLaunch(kernel)
        self._per_sm_next = [0] * len(self.sms)
        n = len(self.sms)
        # Per PC: the instruction is a red/atom (SchedRow.atomic), one
        # list shared by every SM's rows.
        atomic = [ins.atomic for ins in kernel.program.instrs]
        for sm in self.sms:
            count = (kernel.grid_dim - sm.sm_id + n - 1) // n if self.deterministic else 0
            sm.begin_kernel(kernel, expected_ctas=count, atomic=atomic)

    @property
    def all_dispatched(self) -> bool:
        return self._launch is None or self._launch.all_ctas_dispatched

    # ------------------------------------------------------------------
    def place(self, now: int) -> int:
        """Place as many CTAs as possible this cycle; returns count placed."""
        if self._launch is None:
            return 0
        if self.deterministic:
            return self._place_deterministic(now)
        return self._place_baseline(now)

    def _place_deterministic(self, now: int) -> int:
        launch = self._launch
        if launch.all_ctas_dispatched:
            return 0  # every SM's queue is empty: the walk places nothing
        kernel = launch.kernel
        n = len(self.sms)
        placed = 0
        for sm in self.sms:
            while True:
                j = self._per_sm_next[sm.sm_id]
                cta_id = j * n + sm.sm_id
                if cta_id >= kernel.grid_dim:
                    break
                cta = CTA(kernel=kernel, cta_id=cta_id, sm_id=sm.sm_id)
                if not sm.try_place_cta(now, cta, per_sm_index=j):
                    break
                self._per_sm_next[sm.sm_id] = j + 1
                placed += 1
                if self.obs is not None:
                    self._emit_place(now, cta)
        launch.next_cta = min(
            kernel.grid_dim,
            sum(self._per_sm_next[s] for s in range(n)),
        )
        return placed

    def _place_baseline(self, now: int) -> int:
        launch = self._launch
        kernel = launch.kernel
        placed = 0
        while not launch.all_ctas_dispatched:
            cta_id = launch.next_cta
            cta = CTA(kernel=kernel, cta_id=cta_id, sm_id=-1)
            target = None
            for sm in self.sms:
                if sm.can_place_cta(cta):
                    target = sm
                    break
            if target is None:
                break
            cta.sm_id = target.sm_id
            ok = target.try_place_cta(now, cta, per_sm_index=target.ctas_placed)
            if not ok:
                break
            launch.next_cta += 1
            placed += 1
            if self.obs is not None:
                self._emit_place(now, cta)
        return placed

    def finish_kernel(self) -> None:
        self._launch = None
