"""Sample OpenBox applications (paper §4.1, §5.2).

"Along with the controller implementation, we have implemented several
sample applications such as a firewall/ACL, IPS, load balancer, and
more." These are the NFs the paper's evaluation runs:

* :class:`~repro.apps.firewall.FirewallApp` — rule-file firewall/ACL;
* :class:`~repro.apps.ips.IpsApp` — Snort-rule IPS (header + payload);
* :class:`~repro.apps.webcache.WebCacheApp` — HTTP web cache;
* :class:`~repro.apps.loadbalancer.LoadBalancerApp` — L3 load balancer.
"""
