"""Network substrate: packets (:mod:`repro.net.packet`), schedulers
(:mod:`repro.net.queues`), ports and links (:mod:`repro.net.link`),
hosts and switches (:mod:`repro.net.node`), topologies
(:mod:`repro.net.topology`).  Import from the defining module; this init
imports nothing, so the live wire's one ``mtus_for_bytes`` does not
load the schedulers."""
