"""One operation of each workload, written against qset's public API.

Nothing is imported at module level, so a fresh interpreter can time
``import qset`` and the workload's first operation (``first``) without
counting the benchmark's own imports.  Calls go through module attributes
(``qset.classify``), which is where the tracer installs its wrappers.
"""


def certify(qset, p):
    """Certify one behavior as a caller would: verdict, then the certificate
    for extremal verdicts, the witness for non-exposed ones, and the orbit
    representative of every valid point.  Returns
    (verdict, certificate, witness, canonical behavior), or ("invalid",) when
    the behavior is rejected."""
    try:
        verdict = qset.classify(p).verdict.value
    except qset.InvalidBehaviorError:
        return ("invalid",)
    cert = wit = None
    if verdict.startswith("Extremal"):
        cert = qset.selftest_certificate(p)
        if verdict == "ExtremalNonExposed":
            wit = qset.find_witness(cert.realization)
    canon, _ = qset.canonical_behavior(p)
    return (verdict, cert, wit, canon)


def first(spec: dict):
    """Import qset and run the first operation described by ``spec``."""
    import qset

    work = spec["workload"]
    if work == "scan":
        import qset.cli
        return qset.cli.main(spec["argv"])
    p = qset.Behavior.from_vector(spec["vector"])
    if work == "certify":
        return certify(qset, p)
    theta, a0, a1, b0, b1 = spec["params"]
    r = qset.QubitRealization(theta, (a0, a1), (b0, b1))
    return qset.decomposition_search(p, trials=spec["trials"], seed=spec["seed"], hint=r)
