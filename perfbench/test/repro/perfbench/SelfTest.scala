package repro.perfbench

import java.io.File
import org.apache.spark.sql.SparkSession
import repro.online.Targeting
import repro.preference.UserPreference
import repro.storage.GraphStore
import repro.world.{EntityWorld, WorldConfig}
import scala.util.Random

/** The benchmark's own tests. Run with `python3 perfbench/run.py --selftest`;
  * exits non-zero if any test fails.
  */
object SelfTest {

  private val results = scala.collection.mutable.ArrayBuffer[(String, Option[String])]()

  private def test(name: String)(body: => Unit): Unit = {
    val outcome = try { body; None } catch { case e: Throwable => Some(s"${e.getClass.getSimpleName}: ${e.getMessage}") }
    println(outcome.fold(s"ok   $name")(m => s"FAIL $name: $m"))
    results += name -> outcome
  }

  private def assertEq[A](got: A, want: A, what: String): Unit =
    assert(got == want, s"$what: got $got, want $want")

  def main(argv: Array[String]): Unit = {
    val workDir = new File(argv.sliding(2).collectFirst { case Array("--work-dir", d) => d }
      .getOrElse(".bench_build/selftest"))
    val world = new EntityWorld(OfflineWeek.config._1)

    test("workload generation is deterministic per seed") {
      assertEq(Workloads.unique(world, 5), Workloads.unique(world, 5), "unique stream")
      assertEq(Workloads.hot(world, 5, 50), Workloads.hot(world, 5, 50), "hot stream")
      assert(Workloads.unique(world, 5) != Workloads.unique(world, 6), "seeds 5 and 6 gave the same stream")
    }

    test("target_unique never repeats a phrase set and covers all 180") {
      val u = Workloads.stream("target_unique", world, 3)
      val known = u.map(q => (q.topic, q.phrases.filter(p => world.idOf(p).nonEmpty)))
      assertEq(known.length, 180, "stream length")
      assertEq(known.distinct.length, 180, "distinct phrase sets")
      assertEq(known.toSet, Workloads.phraseSets(world).map(q => (q.topic, q.phrases)).toSet, "sets")
    }

    test("unknown phrases are absent from the Entity Dict and ride on some requests") {
      val u = Workloads.unique(world, 3)
      val extra = u.flatMap(_.phrases.filter(p => world.idOf(p).isEmpty))
      assert(extra.nonEmpty && extra.length < u.length / 2, s"${extra.length} unknown phrases")
      assert(u.forall(_.phrases.count(p => world.idOf(p).nonEmpty) == 2), "every request has two known phrases")
    }

    test("phrase sets come from one topic's six most popular entities") {
      Workloads.phraseSets(world).foreach { q =>
        val top = world.entities.filter(_.topic == q.topic).sortBy(-_.popularity).take(6).map(_.name).toSet
        assert(q.phrases.forall(top), s"${q.phrases} not in topic ${q.topic}'s top 6")
      }
    }

    test("target_hot uses exactly its hot sets") {
      val h = Workloads.stream("target_hot", world, 9).take(40)
      assertEq(h.distinct.length, Workloads.HotSets, "distinct sets")
      assertEq(h.distinct.toSet, Workloads.unique(world, 9).take(Workloads.HotSets).toSet, "hot sets")
    }

    test("self time subtracts the union of child intervals") {
      val spans = Seq(
        Span(0, -1, "p", -1, 0, 100, 5, 50, 0, Map.empty),
        Span(1, 0, "a", -1, 10, 30, 2, 20, 0, Map.empty),
        Span(2, 0, "b", -1, 20, 50, 1, 10, 0, Map.empty),
        Span(3, 0, "c", -1, 60, 70, 0, 0, 0, Map.empty),
        Span(4, 3, "d", -1, 61, 62, 0, 0, 0, Map.empty))
      val self = Tracer.selfMs(spans)
      assertEq(self(0), 50 / 1e6, "parent self time")
      assertEq(self(3), 9 / 1e6, "child self time")
      assertEq(Tracer.selfSpark(spans)(0), (2L, 20L), "parent self jobs/tasks")
    }

    test("median") {
      assertEq(Stats.median(Seq(3.0, 1.0, 2.0)), 2.0, "odd")
      assertEq(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)), 2.5, "even")
    }

    val spark = Main.startSpark(workDir)
    try {
      test("closed-form top-K reference matches Targeting.target on a tiny world") {
        val (tiny, edges, store, entityEmb, userEmb) = tinyServing(spark, new File(workDir, "graph").getAbsolutePath)
        val ref = new Requests.Reference(edges, Main.vectors(entityEmb), Main.vectors(userEmb))
        Workloads.phraseSets(tiny).take(6).foreach { q =>
          val res = Targeting.target(spark, tiny, store, userEmb, entityEmb, q.phrases, Requests.Hops, 20)
          val problems = Requests.check(res, ref, 20)
          assert(problems.isEmpty, s"${q.phrases}: ${problems.mkString("; ")}")
          assert(ref.expand(res.seedIds).size > 3, "expansion too small to test anything")
          // the check must catch a wrong export: swap in the lowest-ranked user
          val bad = res.copy(targetUsers = res.targetUsers.dropRight(1) :+ ref.ranking(res.seedIds).last)
          assert(Requests.check(bad, ref, 20).nonEmpty, "a wrong export passed the check")
        }
      }

      test("the traced week reproduces Trmp.runWeek on a small world") {
        val (wc, tc) = OfflineWeek.smallConfig
        val problems = OfflineWeek.tracedMatchesProgram(spark, new EntityWorld(wc), tc,
          new File(workDir, "week-check").getAbsolutePath)
        assert(problems.isEmpty, problems.mkString("; "))
      }
    } finally spark.stop()

    val failed = results.count(_._2.nonEmpty)
    println(s"${results.length - failed} passed, $failed failed")
    if (failed > 0) sys.exit(1)
  }

  /** A tiny served world: a ring-and-chord graph within each topic, random
    * entity embeddings, and users whose histories mix a few entities.
    */
  def tinyServing(spark: SparkSession, path: String) = {
    import spark.implicits._
    val tiny = new EntityWorld(WorldConfig(nEntities = 48, nTopics = 4, nUsers = 60, seed = 3L))
    val r = new Random(11)
    val byTopic = tiny.entities.groupBy(_.topic).values.map(_.map(_.id).sorted)
    val edges = byTopic.toSeq.flatMap { ids =>
      ids.indices.flatMap(i => Seq((ids(i), ids((i + 1) % ids.length), 0.5 + r.nextDouble() / 2),
                                   (ids(i), ids((i + 3) % ids.length), 0.5 + r.nextDouble() / 2)))
    }
    val store = new GraphStore(spark, path)
    store.write(edges.toDF("src", "dst", "score"))
    val pairs = edges.map { case (u, v, _) => (u, v) }
    val emb = Array.fill(tiny.cfg.nEntities)(Array.fill(8)(r.nextGaussian()))
    val entityEmb = UserPreference.embeddingsDf(spark, emb).cache()
    val flat = (0 until tiny.cfg.nUsers).flatMap(u => (0 until 6).map(k => (u, k, r.nextInt(tiny.cfg.nEntities))))
      .toDF("user_id", "rank", "entity_id")
    val userEmb = UserPreference.userEmbeddings(flat, entityEmb).cache()
    (tiny, pairs, store, entityEmb, userEmb)
  }
}
