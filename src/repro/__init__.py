"""repro — reproduction of "(Self) Driving Under the Influence:
Intoxicating Adversarial Network Inputs" (Meier et al., HotNets'19).

The library implements, from scratch and in pure Python:

* the paper's threat model and driver/supervisor countermeasure
  framework (:mod:`repro.core`);
* a discrete-event network simulator substrate (:mod:`repro.netsim`,
  :mod:`repro.flows`);
* every data-driven system the paper attacks — Blink, Pytheas, PCC,
  traceroute/NetHide, SP-PIFO, FlowRadar/LossRadar, DAPPER, RON,
  Espresso-style egress selection, SilkRoad-style connection tables,
  and in-network binary neural networks (one subpackage each);
* the concrete attacks (:mod:`repro.attacks`) and the proposed
  defenses (:mod:`repro.defenses`);
* the seed-sweep engine with checkpoints and a result cache
  (:mod:`repro.runner`); and
* plain-text reporting (:mod:`repro.analysis`).

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced figure/claim.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
