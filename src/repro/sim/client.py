"""The agent client: the ADA side of the client/server boundary.

Mirrors CARLA's client role.  Each frame the client polls the sensor
channel; when a bundle arrives it runs the agent's policy and ships the
resulting control command back on the control channel.  When no bundle is
due (sensor-channel timing fault) the agent simply does not act that frame
— the server keeps applying its previous command.

Two filter chains expose AVFI's fig. 1 hook points directly:

* ``input_filters`` rewrite the :class:`~repro.sim.sensors.SensorFrame`
  before the agent sees it (**Input FI**);
* ``output_filters`` rewrite the :class:`~repro.sim.physics.VehicleControl`
  after the agent produced it (**Output FI**).

Filters are plain callables, so the injection harness can install and
remove fault models without the agent knowing.
"""

from __future__ import annotations

from typing import Callable, Protocol

from .channel import Channel, Packet
from .physics import VehicleControl
from .sensors import SensorFrame

__all__ = ["Agent", "AgentClient"]


class Agent(Protocol):
    """The driving-agent interface the client drives.

    Implementations live in :mod:`repro.agent.agents`; anything with these
    two methods can be campaigned.  An agent may also split ``step`` into
    ``observe(frame)``, ``predict(observations)`` (its model's forward
    pass) and ``act(observation, prediction)``; the episode multiplexer
    then scores the observations of all live episodes sharing that model
    in one ``predict`` call (see :class:`~repro.agent.agents.NNAgent`).
    """

    def reset(self, mission) -> None:
        """Prepare for a new episode (plan the route, clear state)."""

    def step(self, frame: SensorFrame) -> VehicleControl:
        """Map one sensor bundle to one control command."""


InputFilter = Callable[[SensorFrame], SensorFrame]
OutputFilter = Callable[[VehicleControl, int], VehicleControl]


class AgentClient:
    """Runs an agent against the server's channels."""

    def __init__(self, agent: Agent, sensor_channel: Channel, control_channel: Channel):
        self.agent = agent
        self.sensor_channel = sensor_channel
        self.control_channel = control_channel
        self.input_filters: list[InputFilter] = []
        self.output_filters: list[OutputFilter] = []
        self.frames_processed = 0
        self.frames_missed = 0

    def receive(self, frame: int) -> SensorFrame | None:
        """Poll for due bundles: the freshest one through the input
        filters, or ``None`` (a missed frame) when none is due."""
        packets = self.sensor_channel.poll(frame)
        if not packets:
            self.frames_missed += 1
            return None
        # Multiple bundles can pile up behind a timing fault; act on the
        # freshest one, as a real stack polling its queue would.
        packet = max(packets, key=lambda p: p.frame)
        bundle: SensorFrame = packet.payload
        for input_filter in self.input_filters:
            bundle = input_filter(bundle)
        return bundle

    def respond(self, control: VehicleControl, frame: int) -> VehicleControl:
        """Run ``control`` through the output filters and send it."""
        for output_filter in self.output_filters:
            control = output_filter(control, frame)
        self.control_channel.send(Packet("control", frame, control))
        self.frames_processed += 1
        return control

    def tick(self, frame: int) -> VehicleControl | None:
        """Process any due sensor bundle; returns the command sent, if any."""
        bundle = self.receive(frame)
        if bundle is None:
            return None
        return self.respond(self.agent.step(bundle), frame)
