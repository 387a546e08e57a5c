"""The NoC component library: switch + link + TSV models bundled together.

The synthesis flow takes a single :class:`NocLibrary` object wherever the
paper says "the power, area, and timing models of the NoC switches and links
are also taken as inputs" (Sec. IV). :func:`default_library` returns the
65 nm-flavoured library used by all experiments; tests construct variants to
probe model sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.models.link_model import LinkModel
from repro.models.switch_model import SwitchModel
from repro.models.tsv_model import TsvModel


@dataclass(frozen=True)
class NocLibrary:
    """Bundle of the three component models plus shared parameters.

    Attributes:
        switch: Switch power/area/f_max model.
        link: Planar link power/delay model.
        tsv: Vertical link and TSV macro model.
        name: Human-readable library name (for reports).
    """

    switch: SwitchModel = field(default_factory=SwitchModel)
    link: LinkModel = field(default_factory=LinkModel)
    tsv: TsvModel = field(default_factory=TsvModel)
    name: str = "xpipes65-repro"

    def with_switch(self, **kwargs) -> "NocLibrary":
        """A copy with modified switch-model constants."""
        return replace(self, switch=replace(self.switch, **kwargs))

    def with_link(self, **kwargs) -> "NocLibrary":
        """A copy with modified link-model constants."""
        return replace(self, link=replace(self.link, **kwargs))

    def with_tsv(self, **kwargs) -> "NocLibrary":
        """A copy with modified TSV-model constants."""
        return replace(self, tsv=replace(self.tsv, **kwargs))


def default_library() -> NocLibrary:
    """The default 65 nm low-power-flavoured library."""
    return NocLibrary()
