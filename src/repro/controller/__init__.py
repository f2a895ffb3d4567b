"""The OpenBox controller (OBC) and its northbound application API.

The OBC (paper §3.3) is the logically-centralized control plane:

* applications register and declare logic as processing graphs scoped to
  *segments* (:mod:`repro.controller.apps`, :mod:`.segments`);
* per OBI, the controller selects the applicable graphs, merges them
  (:mod:`.aggregator`), and deploys the result — one merge per distinct
  list of applicable statements, one push per changed digest
  (:mod:`.sweep`);
* upstream events (alerts, keepalives) are demultiplexed to the right
  application (:mod:`.obc`);
* load statistics drive scaling decisions (:mod:`.stats`, :mod:`.scaling`);
* the steering module maps service chains onto the forwarding plane
  (:mod:`.steering`), and a journaled split declaration (:mod:`.split`)
  divides an OBI's merged graph between a hardware-classifier OBI and
  software OBIs (paper Figures 5-6), resolved by every sweep;
* high availability (PROTOCOL.md §12): lease-based leadership with
  epoch fencing (:mod:`.lease`) and journal streaming to hot standbys
  with lease-epoch-fenced takeover (:mod:`.replication`).
"""
