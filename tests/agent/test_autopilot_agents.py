"""Tests for the expert autopilot and the agent wrappers."""

import numpy as np
import pytest

from repro.agent.agents import AutopilotAgent, NNAgent, autopilot_agent_factory, nn_agent_factory
from repro.agent.autopilot import Expert, ExpertConfig
from repro.agent.ilcnn import ILCNN, ILCNNConfig
from repro.agent.planner import Command, PlanningError, RoutePlanner
from repro.sim.builders import SimulationBuilder
from repro.sim.geometry import Transform, Vec2
from repro.sim.physics import VehicleControl
from repro.sim.scenario import make_scenarios
from repro.sim.sensors import SensorFrame
from repro.sim.town import GridTownConfig
from repro.sim.violations import ViolationMonitor

TOWN_CFG = GridTownConfig(rows=3, cols=3)
TINY_MODEL_CFG = ILCNNConfig(input_hw=(16, 24), conv_channels=(4, 8, 8), trunk_dim=32,
                             speed_dim=8, branch_hidden=16, dropout=0.0)


@pytest.fixture(scope="module")
def builder():
    return SimulationBuilder(with_lidar=False)


def _scenario(seed=11, **kw):
    return make_scenarios(1, seed=seed, town_config=TOWN_CFG, **kw)[0]


class TestExpert:
    def test_requires_ego(self, builder):
        handles = builder.build_episode(_scenario())
        planner = RoutePlanner(handles.town)
        scn = _scenario()
        route = planner.plan(scn.mission.start.position, scn.mission.goal,
                             start_yaw=scn.mission.start.yaw)
        from repro.sim.world import World

        empty_world = World(handles.town)
        with pytest.raises(ValueError):
            Expert(empty_world, route)

    def test_completes_mission_without_violations(self, builder):
        scn = _scenario(seed=21)
        handles = builder.build_episode(scn)
        planner = RoutePlanner(handles.town)
        route = planner.plan(scn.mission.start.position, scn.mission.goal,
                             start_yaw=scn.mission.start.yaw)
        expert = Expert(handles.world, route)
        ego = handles.world.ego
        mon = ViolationMonitor()
        success = False
        for _ in range(int(scn.mission.time_limit_s * 15)):
            ego.apply_control(expert.control(handles.world.dt))
            handles.world.tick()
            mon.step(handles.world, ego, handles.world.frame)
            if ego.position.distance_to(scn.mission.goal) < scn.mission.success_radius:
                success = True
                break
        assert success, "expert must complete its mission"
        assert mon.events == [], [e.type for e in mon.events]

    def test_stops_for_blocking_vehicle(self, builder):
        scn = _scenario(seed=22)
        handles = builder.build_episode(scn)
        planner = RoutePlanner(handles.town)
        route = planner.plan(scn.mission.start.position, scn.mission.goal,
                             start_yaw=scn.mission.start.yaw)
        expert = Expert(handles.world, route)
        ego = handles.world.ego
        # Park a vehicle directly ahead on the route.
        from repro.sim.actors import Vehicle

        block_point = route.polyline.point_at(18.0)
        block_heading = route.polyline.heading_at(18.0)
        blocker = Vehicle(Transform(block_point, block_heading))
        handles.world.add_actor(blocker)
        for _ in range(15 * 10):
            ego.apply_control(expert.control(handles.world.dt))
            handles.world.tick()
        assert not ego.bounding_box().overlaps(blocker.bounding_box())
        assert ego.speed() < 0.5

    def test_current_command_matches_route(self, builder):
        scn = _scenario(seed=23)
        handles = builder.build_episode(scn)
        planner = RoutePlanner(handles.town)
        route = planner.plan(scn.mission.start.position, scn.mission.goal,
                             start_yaw=scn.mission.start.yaw)
        expert = Expert(handles.world, route)
        assert expert.current_command() == route.command_at(handles.world.ego.position)

    def test_weather_slows_cruise(self, builder):
        cfg = ExpertConfig(cruise_speed=8.0)
        scn_wet = _scenario(seed=24)
        handles = builder.build_episode(scn_wet)
        handles.world.set_weather("HardRainNoon")
        planner = RoutePlanner(handles.town)
        route = planner.plan(scn_wet.mission.start.position, scn_wet.mission.goal,
                             start_yaw=scn_wet.mission.start.yaw)
        expert = Expert(handles.world, route, cfg)
        station, _ = route.locate(handles.world.ego.position)
        target = expert._target_speed(station, route.command_at_station(station))
        assert target < 8.0


def _fake_frame(position, speed=5.0, heading=0.0, hw=(16, 24)):
    gen = np.random.default_rng(0)
    return SensorFrame(
        frame=0,
        image=gen.integers(0, 255, (hw[0], hw[1], 3), dtype=np.uint8),
        gps=(position.x, position.y),
        speed=speed,
        heading=heading,
    )


class TestNNAgent:
    @pytest.fixture(scope="class")
    def handles(self):
        return SimulationBuilder(with_lidar=False).build_episode(_scenario(seed=31))

    @pytest.fixture(scope="class")
    def agent(self, handles):
        model = ILCNN(TINY_MODEL_CFG)
        model.set_training(False)
        agent = NNAgent(model, handles.town)
        agent.reset(_scenario(seed=31).mission)
        return agent

    def test_step_before_reset_raises(self, handles):
        agent = NNAgent(ILCNN(TINY_MODEL_CFG), handles.town)
        with pytest.raises(RuntimeError):
            agent.step(_fake_frame(Vec2(0, 0)))

    def test_step_returns_sane_control(self, agent):
        mission = agent.mission
        control = agent.step(_fake_frame(mission.start.position, heading=mission.start.yaw))
        assert isinstance(control, VehicleControl)
        assert -1.0 <= control.steer <= 1.0
        assert 0.0 <= control.throttle <= 1.0
        assert 0.0 <= control.brake <= 1.0

    def test_no_simultaneous_pedals(self, agent):
        mission = agent.mission
        for seed in range(10):
            frame = _fake_frame(mission.start.position, heading=mission.start.yaw)
            control = agent.step(frame)
            assert not (control.throttle > 0 and control.brake > 0)

    def test_brakes_at_goal(self, agent):
        mission = agent.mission
        control = agent.step(_fake_frame(mission.goal))
        assert control.brake == 1.0

    def test_corrupt_gps_failsafe(self, agent):
        frame = _fake_frame(Vec2(float("nan"), 0.0))
        control = agent.step(frame)
        assert control.steer == 0.0
        assert control.brake > 0.0

    def test_replans_when_off_route(self, handles):
        model = ILCNN(TINY_MODEL_CFG)
        model.set_training(False)
        agent = NNAgent(model, handles.town, replan_tolerance=5.0)
        mission = _scenario(seed=31).mission
        agent.reset(mission)
        # Teleport the GPS far off the route but onto another road.
        far_lane = handles.town.roads[5].lane(+1)
        far_point = far_lane.centerline.point_at(far_lane.length / 2)
        if agent.route.off_route(far_point, 5.0):
            agent.step(_fake_frame(far_point, heading=0.0))
            assert agent.replans == 1

    def test_observe_locates_once_as_step_located_twice(self, handles):
        """``observe`` locates the GPS fix once (twice after a replan);
        its command must be the one the historical ``off_route`` +
        ``command_at`` pair gave, replans included."""
        model = ILCNN(TINY_MODEL_CFG)
        mission = _scenario(seed=31).mission
        agent = NNAgent(model, handles.town, replan_tolerance=5.0)
        legacy = NNAgent(model, handles.town, replan_tolerance=5.0)
        agent.reset(mission)
        legacy.reset(mission)
        points = [
            lane.centerline.point_at(lane.length * f)
            for road in list(handles.town.roads.values())[:8]
            for lane in (road.lane(+1), road.lane(-1))
            for f in (0.2, 0.7)
        ]
        for point in points:
            frame = _fake_frame(point, heading=0.5)
            if legacy.route.off_route(point, legacy.replan_tolerance):
                try:
                    legacy.route = legacy.planner.plan(point, mission.goal, start_yaw=0.5)
                    legacy.replans += 1
                except PlanningError:
                    pass
            observation = agent.observe(frame)
            assert observation.command == int(legacy.route.command_at(point))
            assert agent.replans == legacy.replans
        assert agent.replans > 0


class TestFactories:
    def test_nn_factory_resets_agent(self):
        builder = SimulationBuilder(with_lidar=False)
        scn = _scenario(seed=41)
        handles = builder.build_episode(scn)
        model = ILCNN(TINY_MODEL_CFG)
        agent = nn_agent_factory(model)(handles, scn.mission)
        assert agent.route is not None
        assert agent.model is model

    def test_autopilot_factory(self):
        builder = SimulationBuilder(with_lidar=False)
        scn = _scenario(seed=42)
        handles = builder.build_episode(scn)
        agent = autopilot_agent_factory()(handles, scn.mission)
        control = agent.step(_fake_frame(scn.mission.start.position))
        assert isinstance(control, VehicleControl)

    def test_autopilot_step_before_reset(self):
        builder = SimulationBuilder(with_lidar=False)
        scn = _scenario(seed=43)
        handles = builder.build_episode(scn)
        agent = AutopilotAgent(handles.world, handles.town)
        with pytest.raises(RuntimeError):
            agent.step(_fake_frame(Vec2(0, 0)))
