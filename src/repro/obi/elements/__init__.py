"""Engine elements implementing the abstract processing blocks.

Each module implements one block family; :data:`element_registry` maps
abstract block-type names to element classes. The OBI's translation
layer (``repro.obi.translation``) consults this registry — and any
custom modules injected at runtime — when instantiating a processing
graph (paper §4.2: "a single OpenBox block is usually implemented using
multiple Click blocks"; in this Python engine the mapping is one element
per block, with the compound behaviour folded into the element).
"""

from repro.obi.elements.classifiers import (
    FlowClassifierElement,
    MetadataClassifierElement,
    HeaderClassifierElement,
    HeaderPayloadClassifierElement,
    ProtocolAnalyzerElement,
    RegexClassifierElement,
    VlanClassifierElement,
)
from repro.obi.elements.conntrack import ConntrackElement
from repro.obi.elements.metadata import (
    NshDecapsulateElement,
    NshEncapsulateElement,
    SetMetadataElement,
)
from repro.obi.elements.modifiers import (
    DecTtlElement,
    DefragmenterElement,
    FragmenterElement,
    Ipv4AddressTranslatorElement,
    NetworkHeaderFieldRewriterElement,
    StripEthernetElement,
    TcpPortTranslatorElement,
    VlanDecapsulateElement,
    VlanEncapsulateElement,
)
from repro.obi.elements.payload import (
    GzipCompressorElement,
    GzipDecompressorElement,
    HeaderPayloadRewriterElement,
    HttpCacheResponderElement,
    HtmlNormalizerElement,
    UrlNormalizerElement,
)
from repro.obi.elements.shapers import (
    BpsShaperElement,
    DelayShaperElement,
    PpsShaperElement,
    QueueElement,
    RedQueueElement,
)
from repro.obi.elements.statics import (
    AlertElement,
    CounterElement,
    FlowTrackerElement,
    LogElement,
    MirrorElement,
    SessionTagElement,
    StorePacketElement,
    TeeElement,
)
from repro.obi.elements.terminals import (
    DiscardElement,
    FromDeviceElement,
    FromDumpElement,
    SendToControllerElement,
    ToDeviceElement,
    ToDumpElement,
)

#: Abstract block type -> element class.
element_registry = {
    "FromDevice": FromDeviceElement,
    "ToDevice": ToDeviceElement,
    "Discard": DiscardElement,
    "FromDump": FromDumpElement,
    "ToDump": ToDumpElement,
    "SendToController": SendToControllerElement,
    "HeaderClassifier": HeaderClassifierElement,
    "RegexClassifier": RegexClassifierElement,
    "HeaderPayloadClassifier": HeaderPayloadClassifierElement,
    "ProtocolAnalyzer": ProtocolAnalyzerElement,
    "FlowClassifier": FlowClassifierElement,
    "Conntrack": ConntrackElement,
    "MetadataClassifier": MetadataClassifierElement,
    "VlanClassifier": VlanClassifierElement,
    "NetworkHeaderFieldRewriter": NetworkHeaderFieldRewriterElement,
    "Ipv4AddressTranslator": Ipv4AddressTranslatorElement,
    "TcpPortTranslator": TcpPortTranslatorElement,
    "DecTtl": DecTtlElement,
    "VlanEncapsulate": VlanEncapsulateElement,
    "VlanDecapsulate": VlanDecapsulateElement,
    "GzipDecompressor": GzipDecompressorElement,
    "GzipCompressor": GzipCompressorElement,
    "HtmlNormalizer": HtmlNormalizerElement,
    "UrlNormalizer": UrlNormalizerElement,
    "HeaderPayloadRewriter": HeaderPayloadRewriterElement,
    "HttpCacheResponder": HttpCacheResponderElement,
    "NshEncapsulate": NshEncapsulateElement,
    "NshDecapsulate": NshDecapsulateElement,
    "SetMetadata": SetMetadataElement,
    "StripEthernet": StripEthernetElement,
    "Fragmenter": FragmenterElement,
    "Defragmenter": DefragmenterElement,
    "BpsShaper": BpsShaperElement,
    "PpsShaper": PpsShaperElement,
    "Queue": QueueElement,
    "RedQueue": RedQueueElement,
    "DelayShaper": DelayShaperElement,
    "Alert": AlertElement,
    "Log": LogElement,
    "Counter": CounterElement,
    "FlowTracker": FlowTrackerElement,
    "SessionTag": SessionTagElement,
    "StorePacket": StorePacketElement,
    "Mirror": MirrorElement,
    "Tee": TeeElement,
}

__all__ = ["element_registry"]
