#!/usr/bin/env python
"""Author a custom fault model with the DSL (paper §III).

Shows the programmability that motivates the paper: fault types tailored
with domain knowledge — exception injection at library calls, corrupted
dictionary literals, resource hogs, artificial delays — assembled into a
fault model, persisted as JSON, and used to scan a real target (the
materialized pyetcd client) with plan filtering and sampling (§IV-A).

Run:  python examples/custom_fault_model.py
"""

import tempfile
from pathlib import Path

from repro import FaultModel, parse_spec
from repro.etcdsim import materialize_target
from repro.orchestrator.plan import Plan
from repro.scanner.scan import scan_tree
from repro.stats.sampler import monotone_sample

#: Exception injection on urllib calls, with a per-API exception list
#: (the $PICK directive chooses one per mutant, deterministically).
THROW_SPEC = """
change {
    $CALL#c{name=urllib*; ctx=any}
} into {
    raise $PICK{choices=TimeoutError('injected')|ConnectionError('injected')}
}
"""

#: Wrong/missing initialization of a dict literal ($CORRUPT drops a key).
CORRUPT_DICT_SPEC = """
change {
    $VAR#v = {'value': $EXPR#x}
} into {
    $VAR#v = $CORRUPT({'value': $EXPR#x})
}
"""

#: High resource consumption after request dispatch ($HOG directive).
HOG_SPEC = """
change {
    $VAR#r = $CALL#c{name=*._execute}(...)
} into {
    $VAR#r = $CALL#c(...)
    $HOG{resource=memory; seconds=1; mb=32}
}
"""

#: Performance bottleneck: delay before returning results ($TIMEOUT).
DELAY_SPEC = """
change {
    return $EXPR#result
} into {
    $TIMEOUT{seconds=0.5}
    return $EXPR#result
}
"""


def build_model() -> FaultModel:
    model = FaultModel(
        name="custom_resilience",
        description="Fault types tailored for an HTTP client library",
    )
    model.add(parse_spec(THROW_SPEC, name="THROW_URLLIB"),
              description="urllib raises per-API exceptions",
              odc_class="Interface")
    model.add(parse_spec(CORRUPT_DICT_SPEC, name="CORRUPT_FIELDS"),
              description="wrong initialization of request fields",
              odc_class="Assignment")
    model.add(parse_spec(HOG_SPEC, name="MEMORY_HOG"),
              description="memory hog after request dispatch",
              odc_class="Timing/Serialization")
    model.add(parse_spec(DELAY_SPEC, name="SLOW_RETURN"),
              description="delayed responses (performance bottleneck)",
              odc_class="Timing/Serialization")
    return model


def main() -> None:
    model = build_model()
    print(f"fault model {model.name!r} with {len(model.faults)} fault types:")
    for fault in model.faults:
        print(f"  [{fault.name:<16}] {fault.odc_class:<22} "
              f"{fault.description}")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        json_path = tmp / "custom.json"
        model.save(json_path)
        print(f"\nsaved to {json_path.name} "
              f"({json_path.stat().st_size} bytes); reloading...")
        model = FaultModel.load(json_path)

        print("\nscanning the pyetcd client (materialized target)...")
        project = materialize_target(tmp / "target")
        scan = scan_tree(project.root / "pyetcd", model.enabled_specs())
        print(f"  {len(scan.points)} injection points "
              f"in {scan.files_scanned} files")

        plan = Plan.from_points(scan.points)
        print("\nplan configuration (paper IV-A):")
        only_client = plan.filter(files=["client.py"])
        print(f"  restricted to client.py: {len(only_client)} experiments")
        only_throw = only_client.filter(spec_names=["THROW_URLLIB",
                                                    "SLOW_RETURN"])
        print(f"  two fault types only:    {len(only_throw)} experiments")
        sampled = monotone_sample(only_throw, 5, 42)
        print(f"  random sample (seed 42): {len(sampled)} experiments")
        for experiment in sampled:
            point = experiment.point
            print(f"    {experiment.experiment_id}: {point.spec_name} "
                  f"at {point.file}:{point.lineno}")

        plan_path = tmp / "plan.json"
        sampled.save(plan_path)
        print(f"\nplan saved to {plan_path.name}; reload gives "
              f"{len(Plan.load(plan_path))} experiments")


if __name__ == "__main__":
    main()
