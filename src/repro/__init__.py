"""OpenBox: a software-defined framework for network functions.

A faithful Python reproduction of *OpenBox: A Software-Defined Framework
for Developing, Deploying, and Managing Network Functions* (SIGCOMM 2016).

Quickstart::

    from repro.apps.firewall import FirewallApp, parse_firewall_rules
    from repro.bootstrap import connect_inproc
    from repro.controller.obc import OpenBoxController
    from repro.obi.instance import ObiConfig, OpenBoxInstance

    controller = OpenBoxController()
    obi = OpenBoxInstance(ObiConfig(obi_id="obi-1", segment="corp"))
    connect_inproc(controller, obi)
    rules = parse_firewall_rules("deny tcp any any any 23\\nallow any any any any any")
    controller.register_application(FirewallApp("fw", rules, segment="corp"))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured results of every table and figure.
"""
