"""Resource-family lint rules (``RS``): device budgets.

Static placement checks against a device's
:class:`~repro.hardware.resources.ResourceVector`: the requested kernel
count must fit alongside the shell under the routable fraction (the
paper's scaling limits — six kernels on the U280, five on the Stratix 10 —
are regression fixtures for exactly this rule), a single kernel must fit
at all, and the resident data set must fit some on-board memory.

RS201, RS202 and RS203 all read how many kernels fit; the fit is
computed once per lint pass and shared through ``context.extras``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Iterable

from repro.hardware.resources import ROUTABLE_FRACTION, ResourceVector
from repro.lint.diagnostics import Diagnostic, Location, Severity
from repro.lint.registry import LintContext, rule

_FIT_KEY = "rs_max_kernels"


def _fit(context: LintContext) -> int:
    """``device.max_kernels(config)``, once per lint pass."""
    if _FIT_KEY not in context.extras:
        device, config = context.device, context.config
        assert device is not None and config is not None
        context.extras[_FIT_KEY] = device.max_kernels(config)
    fit: int = context.extras[_FIT_KEY]
    return fit


def _over_budget_axes(need: ResourceVector, have: ResourceVector,
                      ) -> list[tuple[str, int, float]]:
    """Axes where ``need`` exceeds the routable fraction of ``have``."""
    axes = []
    for f in fields(ResourceVector):
        needed = getattr(need, f.name)
        capacity = getattr(have, f.name)
        budget = capacity * ROUTABLE_FRACTION
        if needed > 0 and needed > budget:
            axes.append((f.name, needed, budget))
    return axes


@rule("RS201", name="kernel-count-over-budget", family="resource",
      description="the requested kernel replicas plus the shell must fit "
                  "the device's routable fabric",
      requires=("config", "device", "num_kernels"))
def check_kernel_count(context: LintContext) -> Iterable[Diagnostic]:
    config, device = context.config, context.device
    assert config is not None and device is not None
    assert context.num_kernels is not None
    kernel = device.kernel_resources(config)
    total = device.shell + kernel.scaled(context.num_kernels)
    over = _over_budget_axes(total, device.capacity)
    if over:
        worst = max(over, key=lambda a: a[1] / a[2] if a[2] else float("inf"))
        axis, needed, budget = worst
        fit = _fit(context)
        yield Diagnostic(
            code="RS201", severity=Severity.ERROR,
            message=(
                f"{context.num_kernels} kernel(s) do not fit "
                f"{device.name}: {axis} needs {needed:,.0f} of a routable "
                f"budget of {budget:,.0f} "
                f"({', '.join(a for a, _, _ in over)} over budget)"
            ),
            location=Location("device", device.name, axis),
            hint=f"this configuration fits at most {fit} kernel(s) on "
                 f"{device.name}",
        )


@rule("RS202", name="placement-headroom", family="resource",
      description="reports how many kernel replicas fit and which axis "
                  "limits further replication",
      requires=("config", "device"), severity=Severity.INFO)
def report_placement(context: LintContext) -> Iterable[Diagnostic]:
    config, device = context.config, context.device
    assert config is not None and device is not None
    fit = _fit(context)
    if fit == 0:
        return  # RS203 reports the failure
    kernel = device.kernel_resources(config)
    one_more = device.shell + kernel.scaled(fit + 1)
    over = _over_budget_axes(one_more, device.capacity)
    limiting = ", ".join(a for a, _, _ in over) if over else "none"
    used = device.shell + kernel.scaled(fit)
    utilisation = used.utilisation(device.capacity)
    peak_axis, peak = max(utilisation.items(), key=lambda kv: kv[1],
                          default=("-", 0.0))
    yield Diagnostic(
        code="RS202", severity=Severity.INFO,
        message=(
            f"{device.name} fits {fit} kernel(s) of this configuration; "
            f"replication limited by {limiting}; peak utilisation "
            f"{peak:.0%} on {peak_axis}"
        ),
        location=Location("device", device.name),
    )


@rule("RS203", name="kernel-does-not-fit", family="resource",
      description="a single kernel instance must fit the device at all",
      requires=("config", "device"))
def check_single_kernel(context: LintContext) -> Iterable[Diagnostic]:
    config, device = context.config, context.device
    assert config is not None and device is not None
    if _fit(context) > 0:
        return
    total = device.shell + device.kernel_resources(config)
    over = _over_budget_axes(total, device.capacity)
    axes = ", ".join(a for a, _, _ in over) if over else "unknown"
    yield Diagnostic(
        code="RS203", severity=Severity.ERROR,
        message=(
            f"a single kernel of this configuration does not fit "
            f"{device.name} (over budget on: {axes})"
        ),
        location=Location("device", device.name),
        hint="shrink the chunk width (smaller shift buffers) or use a "
             "narrower word size",
    )


@rule("RS204", name="data-set-exceeds-memories", family="resource",
      description="the resident data set must fit at least one on-board "
                  "memory space",
      requires=("config", "device"))
def check_memory_capacity(context: LintContext) -> Iterable[Diagnostic]:
    config, device = context.config, context.device
    assert config is not None and device is not None
    data_bytes = config.bytes_per_cell_cycle * config.grid.num_cells
    if any(m.fits(data_bytes) for m in device.memories.values()):
        return
    capacities = ", ".join(
        f"{name}={m.spec.capacity_bytes / 2**30:.0f} GiB"
        for name, m in device.memories.items()
    )
    yield Diagnostic(
        code="RS204", severity=Severity.ERROR,
        message=(
            f"resident data set of {data_bytes / 2**30:.1f} GiB exceeds "
            f"every memory space on {device.name} ({capacities})"
        ),
        location=Location("device", device.name, "memory"),
        hint="decompose the domain across cards "
             "(repro.distributed) or reduce word_bytes",
    )
